// Package store implements a persistent content-addressed artifact
// store: opaque payloads (serialized compiled programs) addressed by
// the string form of their cache key. Entries live as individual files
// under a root directory, named by the SHA-256 of the key and fanned
// out over 256 subdirectories, so a store can be shared between
// processes and survive restarts.
//
// The store is crash-safe and paranoid by construction: writes go to a
// temp file and rename into place (a reader never observes a partial
// entry), and every entry carries a magic, a format version, a CRC-32C
// checksum and an echo of the full key. Load verifies all four before
// returning the payload; any mismatch — truncation, corruption, a
// foreign format, or a hash collision — comes back as an error the
// caller treats as a miss and recompiles through.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
)

// formatVersion guards the envelope layout written by Save. Bump on
// any change; Load rejects other versions as corrupt.
const formatVersion = 1

// magic opens every entry file so stray files are rejected immediately.
var magic = []byte("MPFA")

// ErrNotFound reports that the store has no entry for the key. It is
// the only "clean miss" error; everything else Load returns means the
// entry existed but could not be trusted.
var ErrNotFound = errors.New("store: artifact not found")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store is a directory of checksummed artifact files. The zero value
// is not usable; call Open. A Store carries no in-memory state beyond
// its root, so it is safe for concurrent use from any number of
// goroutines and processes.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file: sha256 in hex, fanned out on the
// first byte so huge stores don't pile every entry into one directory.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:]+".mpa")
}

// Save writes the payload for key, atomically replacing any existing
// entry. The payload is the concatenation of parts; they are
// checksummed and written one after another without being joined, so
// a large part (a program's data image) goes to disk without an extra
// copy. Save(k, a, b) writes the same file as Save(k, append(a, b...)).
// The temp file is created in the destination directory so the rename
// never crosses filesystems.
func (s *Store) Save(key string, parts ...[]byte) error {
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}

	payLen := 0
	for _, p := range parts {
		payLen += len(p)
	}
	head := make([]byte, 0, len(magic)+1+4+2*binary.MaxVarintLen64+len(key))
	head = append(head, magic...)
	head = append(head, formatVersion)
	head = append(head, 0, 0, 0, 0) // checksum placeholder, patched below
	head = binary.AppendUvarint(head, uint64(len(key)))
	head = append(head, key...)
	head = binary.AppendUvarint(head, uint64(payLen))
	// The checksum covers everything after its own field, so a flipped
	// bit anywhere in key or payload fails verification.
	crcOff := len(magic) + 1
	sum := crc32.Checksum(head[crcOff+4:], crcTable)
	for _, p := range parts {
		sum = crc32.Update(sum, crcTable, p)
	}
	binary.LittleEndian.PutUint32(head[crcOff:], sum)

	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	bufs := append(net.Buffers{head}, parts...)
	if _, err := bufs.WriteTo(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Load returns the payload saved for key, or ErrNotFound when no entry
// exists. Any structural problem with an existing entry — bad magic,
// foreign version, checksum mismatch, truncation, or a key echo that
// doesn't match (a hash collision or a tampered file) — is returned as
// a distinct error so callers can log it, but every non-nil error
// means the same thing operationally: treat as a miss.
func (s *Store) Load(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: %w", err)
	}

	if len(data) < len(magic)+1+4 || string(data[:len(magic)]) != string(magic) {
		return nil, fmt.Errorf("store: entry for %q has bad magic", key)
	}
	pos := len(magic)
	if v := data[pos]; v != formatVersion {
		return nil, fmt.Errorf("store: entry for %q has format version %d, want %d", key, v, formatVersion)
	}
	pos++
	want := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	if got := crc32.Checksum(data[pos:], crcTable); got != want {
		return nil, fmt.Errorf("store: entry for %q fails checksum (%08x != %08x)", key, got, want)
	}

	keyLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || keyLen > uint64(len(data)-pos-n) {
		return nil, fmt.Errorf("store: entry for %q is truncated", key)
	}
	pos += n
	if string(data[pos:pos+int(keyLen)]) != key {
		return nil, fmt.Errorf("store: entry addressed by %q echoes a different key", key)
	}
	pos += int(keyLen)
	payLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || payLen != uint64(len(data)-pos-n) {
		return nil, fmt.Errorf("store: entry for %q is truncated", key)
	}
	pos += n
	return data[pos:], nil
}

// Remove deletes the entry for key, if any.
func (s *Store) Remove(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
