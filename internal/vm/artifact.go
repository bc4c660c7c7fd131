package vm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mperf/internal/ir"
)

// This file implements program artifact serialization: the stable
// parts of a compiled Program — the frozen module, the compile
// configuration that shaped its plans, and the baked Seed data image —
// flattened into bytes and back. Exec funcs and superblock templates
// are Go closures and cannot travel; DecodeArtifact verifies and
// re-plans them from the decoded module, which is cheap next to a cold
// pipeline compile (no workload build, no vectorizer pipeline, no Seed
// execution).
//
// The data image is most of an artifact's bytes, so it is never copied
// on the way through: EncodeArtifactParts hands it out as a separate
// part for the caller to write after the head, and DecodeArtifact keeps
// it as a subslice of its input.
//
// The payload is versioned independently of the codegen scheme: the
// codegen tag lives in the caller's cache key (a plan change makes old
// artifacts unreachable), while ArtifactVersion guards the byte layout
// itself. Decoding rejects any version mismatch with an error, which
// artifact stores translate into a silent recompile.

// ArtifactVersion identifies the artifact payload layout. Bump on any
// change to EncodeArtifact's byte format.
const ArtifactVersion = 1

// EncodeArtifact serializes the program's stable parts: the module,
// the compile configuration (superblock flag and hot-function
// restriction), and the data image when one was baked. The bytes are
// EncodeArtifactParts' head followed by its image.
func EncodeArtifact(p *Program) ([]byte, error) {
	head, img, err := EncodeArtifactParts(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(head)+len(img))
	return append(append(out, head...), img...), nil
}

// EncodeArtifactParts serializes the program like EncodeArtifact but
// returns the artifact in two parts whose concatenation is
// EncodeArtifact's output: a small head (version, compile
// configuration, module, image length) and the data image itself. The
// image is the program's own buffer, not a copy; callers write it out
// (for example as the second part of store.Save) and must not modify it.
func EncodeArtifactParts(p *Program) (head, image []byte, err error) {
	if p == nil || p.mod == nil {
		return nil, nil, fmt.Errorf("vm: cannot encode a nil program")
	}
	modBytes := ir.EncodeModule(p.mod)
	head = make([]byte, 0, len(modBytes)+64)
	head = append(head, ArtifactVersion)
	if p.superblocks {
		head = append(head, 1)
	} else {
		head = append(head, 0)
	}
	// Hot-function restriction: 0 = unrestricted (nil set), 1 = the
	// listed functions only (possibly none, meaning disabled).
	if p.hotFuncs == nil {
		head = append(head, 0)
	} else {
		head = append(head, 1)
		head = binary.AppendUvarint(head, uint64(len(p.hotFuncs)))
		for _, name := range p.hotFuncs {
			head = binary.AppendUvarint(head, uint64(len(name)))
			head = append(head, name...)
		}
	}
	head = binary.AppendUvarint(head, uint64(len(modBytes)))
	head = append(head, modBytes...)
	head = binary.AppendUvarint(head, uint64(len(p.image)))
	return head, p.image, nil
}

// DecodeArtifact reconstructs a Program from EncodeArtifact bytes:
// the module is decoded, verified and re-planned (exec funcs,
// superblock templates and loop kernels are re-bound under the
// serialized compile configuration), and the data image is reinstalled.
// Callers should integrity-check the input (the store's envelope does);
// any structural mismatch, including a module that decodes but does
// not verify, is returned as an error, never a panic.
//
// The returned Program retains data: its data image is a subslice of
// the input, not a copy. Callers hand over the buffer and must not
// modify it afterwards.
func DecodeArtifact(data []byte) (*Program, error) {
	pos := 0
	u8 := func(what string) (byte, error) {
		if pos >= len(data) {
			return 0, fmt.Errorf("vm: artifact truncated reading %s", what)
		}
		b := data[pos]
		pos++
		return b, nil
	}
	uvarint := func(what string) (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("vm: artifact truncated reading %s", what)
		}
		pos += n
		return v, nil
	}
	take := func(n uint64, what string) ([]byte, error) {
		if n > uint64(len(data)-pos) {
			return nil, fmt.Errorf("vm: artifact %s of %d bytes overruns input", what, n)
		}
		b := data[pos : pos+int(n)]
		pos += int(n)
		return b, nil
	}

	ver, err := u8("version")
	if err != nil {
		return nil, err
	}
	if ver != ArtifactVersion {
		return nil, fmt.Errorf("vm: artifact version %d, want %d", ver, ArtifactVersion)
	}
	sbByte, err := u8("superblock flag")
	if err != nil {
		return nil, err
	}
	cfg := compileConfig{superblocks: sbByte != 0}
	hotByte, err := u8("hot-func flag")
	if err != nil {
		return nil, err
	}
	var hotNames []string
	if hotByte != 0 {
		n, err := uvarint("hot-func count")
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)-pos) {
			return nil, fmt.Errorf("vm: artifact hot-func count %d overruns input", n)
		}
		cfg.hotFuncs = make(map[string]bool, n)
		hotNames = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			l, err := uvarint("hot-func name length")
			if err != nil {
				return nil, err
			}
			b, err := take(l, "hot-func name")
			if err != nil {
				return nil, err
			}
			cfg.hotFuncs[string(b)] = true
			hotNames = append(hotNames, string(b))
		}
	}

	modLen, err := uvarint("module length")
	if err != nil {
		return nil, err
	}
	modBytes, err := take(modLen, "module")
	if err != nil {
		return nil, err
	}
	imgLen, err := uvarint("image length")
	if err != nil {
		return nil, err
	}
	img, err := take(imgLen, "data image")
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("vm: artifact has %d trailing bytes", len(data)-pos)
	}

	mod, err := ir.DecodeModule(modBytes)
	if err != nil {
		return nil, err
	}
	p, err := compileModule(mod, cfg)
	if err != nil {
		return nil, fmt.Errorf("vm: re-planning artifact: %w", err)
	}
	p.hotFuncs = hotNames
	if len(img) > 0 {
		if len(img) != p.DataSize() {
			return nil, fmt.Errorf("vm: artifact image is %d bytes, program data region is %d",
				len(img), p.DataSize())
		}
		p.image = img
	}
	return p, nil
}

// sortedHotFuncs renders a compile config's hot-function restriction
// in the canonical (sorted) order the artifact encoding uses; nil
// means unrestricted and stays nil.
func sortedHotFuncs(cfg *compileConfig) []string {
	if cfg.hotFuncs == nil {
		return nil
	}
	names := make([]string, 0, len(cfg.hotFuncs))
	for n := range cfg.hotFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
