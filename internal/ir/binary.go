package ir

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// This file implements the compact binary module encoding behind the
// on-disk program artifact store. The textual format (Print/Parse)
// stays the human-facing interchange; the binary codec exists because
// artifact loading is a hot path — a warm process start decodes every
// cached program before serving its first profile — and decoding
// integer-tagged operands is several times faster than lexing text.
//
// The encoding is positional and deterministic: globals, functions,
// blocks and instructions are written in module order and referenced
// by index, function hints are written in sorted key order, and value
// operands are tagged references into a per-function value table
// (parameters first, then value-producing instructions in order of
// appearance). Encoding the same module twice yields identical bytes,
// which is what makes content-addressed artifact files stable.
//
// DecodeModule is defensive rather than trusting: every index is
// bounds-checked and every error is returned, never panicked, so a
// truncated or bit-flipped artifact degrades into a recompile instead
// of a crash. Bounds checks are not a structural check, though: run
// ir.Verify on the decoded module before compiling it (vm.DecodeArtifact
// does), since an integrity checksum only proves the bytes are the ones
// that were written.

// binaryVersion is the codec version. Bump it on any change to the
// byte layout; DecodeModule rejects other versions.
const binaryVersion = 1

// operand reference tags.
const (
	refConstInt   = 0 // type code, varint payload
	refConstFloat = 1 // type code, 8-byte IEEE-754 bits
	refValue      = 2 // index into the function's value table
	refGlobal     = 3 // index into the module's global table
)

// encoder accumulates the output buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}
func (e *encoder) varint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) typ(t Type) {
	e.u8(uint8(t.Kind))
	e.uvarint(uint64(t.Lanes))
}

// EncodeModule serializes the module into the binary artifact format.
// The output is deterministic: structurally identical modules encode
// to identical bytes.
func EncodeModule(m *Module) []byte {
	e := &encoder{buf: make([]byte, 0, 4096)}
	e.u8(binaryVersion)
	e.str(m.MName)

	// Globals.
	e.uvarint(uint64(len(m.Globals)))
	globalIdx := make(map[*Global]int, len(m.Globals))
	for i, g := range m.Globals {
		globalIdx[g] = i
		e.str(g.GName)
		e.typ(g.Elem)
		e.uvarint(uint64(g.Count))
	}

	// Function signatures first, so call operands can reference any
	// function by index regardless of declaration order.
	e.uvarint(uint64(len(m.Funcs)))
	funcIdx := make(map[*Func]int, len(m.Funcs))
	for i, f := range m.Funcs {
		funcIdx[f] = i
		e.str(f.FName)
		e.typ(f.RetTy)
		e.uvarint(uint64(len(f.Params)))
		for _, p := range f.Params {
			e.str(p.PName)
			e.typ(p.Ty)
		}
		e.str(f.SourceFile)
		e.uvarint(uint64(f.SourceLine))
		// Hints in sorted key order for deterministic bytes.
		keys := make([]string, 0, len(f.Hints))
		for k := range f.Hints {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.varint(f.Hints[k])
		}
	}

	// Function bodies.
	for _, f := range m.Funcs {
		ensureNames(f)
		// Value table: params first, then value-producing instructions
		// in order of appearance.
		valueIdx := make(map[Value]int)
		for i, p := range f.Params {
			valueIdx[p] = i
		}
		next := len(f.Params)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Ty != Void {
					valueIdx[in] = next
					next++
				}
			}
		}
		blockIdx := make(map[*Block]int, len(f.Blocks))
		e.uvarint(uint64(len(f.Blocks)))
		for i, b := range f.Blocks {
			blockIdx[b] = i
			e.str(b.BName)
		}
		for _, b := range f.Blocks {
			e.uvarint(uint64(len(b.Instrs)))
			for _, in := range b.Instrs {
				e.u8(uint8(in.Op))
				e.typ(in.Ty)
				e.u8(uint8(in.Pred))
				e.varint(in.Scale)
				e.uvarint(uint64(in.Lane))
				if in.Ty != Void {
					e.str(in.name)
				}
				e.uvarint(uint64(len(in.Args)))
				for _, a := range in.Args {
					switch v := a.(type) {
					case *Const:
						if v.Ty.IsFloat() {
							e.u8(refConstFloat)
							e.typ(v.Ty)
							e.u64(math.Float64bits(v.Float))
						} else {
							e.u8(refConstInt)
							e.typ(v.Ty)
							e.varint(v.Int)
						}
					case *Global:
						e.u8(refGlobal)
						e.uvarint(uint64(globalIdx[v]))
					default:
						e.u8(refValue)
						e.uvarint(uint64(valueIdx[a]))
					}
				}
				e.uvarint(uint64(len(in.Blocks)))
				for _, tb := range in.Blocks {
					e.uvarint(uint64(blockIdx[tb]))
				}
				e.uvarint(uint64(len(in.Cases)))
				for _, c := range in.Cases {
					e.varint(c)
				}
				if in.Op == OpCall {
					e.uvarint(uint64(funcIdx[in.Callee]))
				}
			}
		}
	}

	// Loop metadata registry (the instrumentation pass's LoopInfo
	// records; IDs are positional, 1-based).
	e.uvarint(uint64(len(m.Loops)))
	for _, lm := range m.Loops {
		e.str(lm.File)
		e.uvarint(uint64(lm.Line))
		e.str(lm.FuncName)
		e.str(lm.Header)
	}
	return e.buf
}

// decoder reads the buffer with bounds checking; the first error
// sticks and short-circuits every later read.
type decoder struct {
	buf []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("ir: decode: "+format, args...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail("truncated at byte %d", d.pos)
		return 0
	}
	v := d.buf[d.pos]
	d.pos++
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.buf) {
		d.fail("truncated u64 at byte %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.fail("string of %d bytes overruns buffer at %d", n, d.pos)
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *decoder) typ() Type {
	k := d.u8()
	lanes := d.uvarint()
	if d.err != nil {
		return Type{}
	}
	if Kind(k) > KPtr {
		d.fail("unknown type kind %d", k)
		return Type{}
	}
	if lanes > 1<<16 {
		d.fail("implausible lane count %d", lanes)
		return Type{}
	}
	return Type{Kind: Kind(k), Lanes: int(lanes)}
}

// count reads a length prefix and sanity-bounds it against the bytes
// remaining, so a corrupted length cannot drive a huge allocation.
func (d *decoder) count(what string) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.pos)+1 {
		d.fail("%s count %d exceeds remaining input", what, n)
		return 0
	}
	return int(n)
}

// pendingArg is one undecoded operand of an instruction, resolved once
// the whole function body (and thus the value table) exists.
type pendingArg struct {
	tag uint8
	// refConstInt / refConstFloat payload:
	ty   Type
	ival int64
	bits uint64
	// refValue / refGlobal payload:
	idx int
}

// DecodeModule reads a module in the EncodeModule format. The decoded
// module is structurally complete but not verified; callers run
// ir.Verify before compiling it.
func DecodeModule(data []byte) (*Module, error) {
	d := &decoder{buf: data}
	if v := d.u8(); d.err == nil && v != binaryVersion {
		return nil, fmt.Errorf("ir: decode: codec version %d, want %d", v, binaryVersion)
	}
	m := &Module{MName: d.str()}

	nGlobals := d.count("global")
	for i := 0; i < nGlobals && d.err == nil; i++ {
		g := &Global{GName: d.str(), Elem: d.typ()}
		cnt := d.uvarint()
		if cnt == 0 || cnt > 1<<40 {
			d.fail("global %s: implausible element count %d", g.GName, cnt)
			break
		}
		g.Count = int(cnt)
		m.Globals = append(m.Globals, g)
	}

	nFuncs := d.count("func")
	for i := 0; i < nFuncs && d.err == nil; i++ {
		f := &Func{FName: d.str(), RetTy: d.typ(), Mod: m}
		nParams := d.count("param")
		for j := 0; j < nParams && d.err == nil; j++ {
			f.Params = append(f.Params, &Param{PName: d.str(), Ty: d.typ(), Index: j, fn: f})
		}
		f.SourceFile = d.str()
		f.SourceLine = int(d.uvarint())
		nHints := d.count("hint")
		for j := 0; j < nHints && d.err == nil; j++ {
			k := d.str()
			v := d.varint()
			if f.Hints == nil {
				f.Hints = make(map[string]int64, nHints)
			}
			f.Hints[k] = v
		}
		m.Funcs = append(m.Funcs, f)
	}
	if d.err != nil {
		return nil, d.err
	}

	for _, f := range m.Funcs {
		if err := d.funcBody(m, f); err != nil {
			return nil, err
		}
	}

	nLoops := d.count("loop meta")
	for i := 0; i < nLoops && d.err == nil; i++ {
		m.Loops = append(m.Loops, LoopMeta{
			ID:       int64(i + 1),
			File:     d.str(),
			Line:     int(d.uvarint()),
			FuncName: d.str(),
			Header:   d.str(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("ir: decode: %d trailing bytes", len(d.buf)-d.pos)
	}
	return m, nil
}

func (d *decoder) funcBody(m *Module, f *Func) error {
	// Blocks, instructions and constants are allocated in batches: a
	// decoded module is frozen, so its pieces live and die together.
	// Counts are bounded by the remaining input (see count), so sizing
	// from them up front allocates at most a constant factor of the
	// input, however the counts are forged.
	nBlocks := d.count("block")
	f.Blocks = make([]*Block, 0, nBlocks)
	blocks := make([]Block, nBlocks)
	for i := 0; i < nBlocks && d.err == nil; i++ {
		blocks[i] = Block{BName: d.str(), fn: f}
		f.Blocks = append(f.Blocks, &blocks[i])
	}

	// First pass: materialize every instruction with its scalar fields
	// and record operand references; value-producing instructions claim
	// the next slot in the value table as they appear.
	values := make([]Value, len(f.Params), len(f.Params)+64)
	for i, p := range f.Params {
		values[i] = p
	}
	// Operand references of all instructions, in instruction order; the
	// second pass consumes them in the same order.
	var pend []pendingArg
	nConsts := 0
	for _, b := range f.Blocks {
		nInstrs := d.count("instr")
		b.Instrs = make([]*Instr, 0, nInstrs)
		backing := make([]Instr, nInstrs)
		for j := 0; j < nInstrs && d.err == nil; j++ {
			op := Op(d.u8())
			if op == OpInvalid || op > OpSwitch {
				d.fail("unknown opcode %d", op)
				break
			}
			in := &backing[j]
			*in = Instr{
				Op:    op,
				Ty:    d.typ(),
				Pred:  Pred(d.u8()),
				Scale: d.varint(),
				Lane:  int(d.uvarint()),
				block: b,
			}
			if in.Ty != Void {
				in.name = d.str()
			}
			nArgs := d.count("arg")
			if nArgs > 0 {
				in.Args = make([]Value, nArgs)
			}
			for a := 0; a < nArgs && d.err == nil; a++ {
				pa := pendingArg{tag: d.u8()}
				switch pa.tag {
				case refConstInt:
					pa.ty = d.typ()
					pa.ival = d.varint()
					nConsts++
				case refConstFloat:
					pa.ty = d.typ()
					pa.bits = d.u64()
					nConsts++
				case refValue, refGlobal:
					pa.idx = int(d.uvarint())
				default:
					d.fail("unknown operand tag %d", pa.tag)
				}
				pend = append(pend, pa)
			}
			nBlockRefs := d.count("block ref")
			if nBlockRefs > 0 {
				in.Blocks = make([]*Block, 0, nBlockRefs)
			}
			for bi := 0; bi < nBlockRefs && d.err == nil; bi++ {
				idx := int(d.uvarint())
				if d.err == nil && idx >= len(f.Blocks) {
					d.fail("block ref %d out of range in @%s", idx, f.FName)
					break
				}
				if d.err == nil {
					in.Blocks = append(in.Blocks, f.Blocks[idx])
				}
			}
			nCases := d.count("case")
			for ci := 0; ci < nCases && d.err == nil; ci++ {
				in.Cases = append(in.Cases, d.varint())
			}
			if op == OpCall {
				idx := int(d.uvarint())
				if d.err == nil && idx >= len(m.Funcs) {
					d.fail("callee index %d out of range", idx)
				}
				if d.err == nil {
					in.Callee = m.Funcs[idx]
				}
			}
			if d.err != nil {
				break
			}
			if in.Ty != Void {
				values = append(values, in)
			}
			b.Instrs = append(b.Instrs, in)
		}
	}
	if d.err != nil {
		return d.err
	}

	// Second pass: resolve operand references (phis may point forward).
	consts := make([]Const, nConsts)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for a := range in.Args {
				pa := pend[0]
				pend = pend[1:]
				switch pa.tag {
				case refConstInt:
					consts[0] = Const{Ty: pa.ty, Int: pa.ival}
					in.Args[a], consts = &consts[0], consts[1:]
				case refConstFloat:
					consts[0] = Const{Ty: pa.ty, Float: math.Float64frombits(pa.bits)}
					in.Args[a], consts = &consts[0], consts[1:]
				case refValue:
					if pa.idx >= len(values) {
						return fmt.Errorf("ir: decode: value ref %d out of range in @%s", pa.idx, f.FName)
					}
					in.Args[a] = values[pa.idx]
				case refGlobal:
					if pa.idx >= len(m.Globals) {
						return fmt.Errorf("ir: decode: global ref %d out of range in @%s", pa.idx, f.FName)
					}
					in.Args[a] = m.Globals[pa.idx]
				}
			}
		}
	}
	return nil
}
