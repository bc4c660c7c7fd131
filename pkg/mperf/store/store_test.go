package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryFile locates the single .mpa file a test saved, so corruption
// tests can mangle it without knowing the hashing scheme.
func entryFile(t *testing.T, s *Store) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".mpa") {
			found = path
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file found: %v", err)
	}
	return found
}

func TestStoreRoundTrip(t *testing.T) {
	s := openStore(t)
	key := "workload=matmul params=n24:m8 profile=opt cg=cg2+sb"
	payload := bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 100)

	if _, err := s.Load(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound before save, got %v", err)
	}
	if err := s.Save(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload changed across the round trip")
	}

	// Overwrite with new content; the new bytes win.
	if err := s.Save(key, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Load(key); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}

	// A different key is a different entry.
	if _, err := s.Load(key + "!"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unrelated key resolved: %v", err)
	}
}

func TestStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save("k", []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load("k")
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reopen lost the entry: %q, %v", got, err)
	}
}

// TestStoreMultiPartSaveIsByteIdentical pins that Save's parts are an
// encoding detail: a payload saved in pieces leaves exactly the file
// the joined payload does, and loads back joined.
func TestStoreMultiPartSaveIsByteIdentical(t *testing.T) {
	a := []byte("artifact head: version, config, module")
	b := bytes.Repeat([]byte{0x5a, 0xa5}, 300)
	joined := append(append([]byte(nil), a...), b...)
	cases := map[string][][]byte{
		"two parts":        {a, b},
		"with empty parts": {nil, a, {}, b, nil},
	}

	one := openStore(t)
	if err := one.Save("k", joined); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(entryFile(t, one))
	if err != nil {
		t.Fatal(err)
	}
	for name, parts := range cases {
		s := openStore(t)
		if err := s.Save("k", parts...); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(entryFile(t, s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: entry file differs from the single-part save", name)
		}
		if loaded, err := s.Load("k"); err != nil || !bytes.Equal(loaded, joined) {
			t.Errorf("%s: Load = %q, %v; want the joined payload", name, loaded, err)
		}
	}
}

// TestStoreRejectsCorruption pins that every single-byte corruption
// and every truncation of an entry file is detected — Load returns an
// error (so the cache recompiles) and never bad bytes — whether the
// payload was saved whole or in parts.
func TestStoreRejectsCorruption(t *testing.T) {
	head := []byte("the artifact payload, ")
	tail := []byte("long enough to be interesting")
	t.Run("one part", func(t *testing.T) {
		checkRejectsCorruption(t, append(append([]byte(nil), head...), tail...))
	})
	t.Run("two parts", func(t *testing.T) { checkRejectsCorruption(t, head, tail) })
}

func checkRejectsCorruption(t *testing.T, parts ...[]byte) {
	s := openStore(t)
	const key = "corruptible"
	payload := bytes.Join(parts, nil)
	if err := s.Save(key, parts...); err != nil {
		t.Fatal(err)
	}
	file := entryFile(t, s)
	pristine, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}

	for i := range pristine {
		mangled := append([]byte(nil), pristine...)
		mangled[i] ^= 0x5a
		if err := os.WriteFile(file, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Load(key); err == nil {
			t.Fatalf("byte %d flipped but Load returned %q", i, got)
		}
	}
	for cut := 0; cut < len(pristine); cut++ {
		if err := os.WriteFile(file, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Load(key); err == nil {
			t.Fatalf("truncation to %d bytes but Load returned %q", cut, got)
		}
	}

	// Restore the pristine bytes: Load works again.
	if err := os.WriteFile(file, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Load(key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pristine entry no longer loads: %v", err)
	}
}

func TestStoreRejectsForeignVersion(t *testing.T) {
	s := openStore(t)
	if err := s.Save("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	file := entryFile(t, s)
	data, _ := os.ReadFile(file)
	// The version byte precedes the checksummed region, so patching it
	// exercises the explicit version check rather than the CRC.
	data[len(magic)] = formatVersion + 1
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("k"); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// TestStoreRejectsKeyCollision pins the key echo: an entry renamed to
// sit at another key's address (simulating a hash collision or a
// mis-copied cache directory) is rejected.
func TestStoreRejectsKeyCollision(t *testing.T) {
	s := openStore(t)
	if err := s.Save("original", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	src := entryFile(t, s)
	dst := s.path("impostor")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("impostor"); err == nil || !strings.Contains(err.Error(), "different key") {
		t.Fatalf("want key-echo error, got %v", err)
	}
}

func TestStoreRemove(t *testing.T) {
	s := openStore(t)
	if err := s.Save("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after remove, got %v", err)
	}
	// Removing a missing entry is a no-op.
	if err := s.Remove("k"); err != nil {
		t.Fatal(err)
	}
}

func TestStoreLeavesNoTempFiles(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 8; i++ {
		if err := s.Save("k", bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(filepath.Base(path), ".tmp-") {
			t.Fatalf("temp file left behind: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
