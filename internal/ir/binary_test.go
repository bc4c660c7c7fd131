package ir

import (
	"bytes"
	"strings"
	"testing"
)

// codecSource exercises every opcode family the encoder must carry:
// integer and FP arithmetic, comparisons, fma, conversions, vector
// construction, memory with displacements, gep, phi, select, call
// (including a forward reference), ret/br/condbr/switch, function
// metadata and hints.
const codecSource = `module "codec"

global @g f32[64]
global @h i64[8]

func @main(%n: i64) -> f32 !file "main.c" !line 3 !hint "trip_multiple.loop" 4 {
entry:
  %p = alloca 8, 4
  %m = call i64 @leaf(i64 %n)
  store i64 %m, %p
  br loop
loop:
  %i = phi i64 [0, entry], [%i2, loop]
  %addr = gep @g, i64 %i, 4
  %v = load f32 %addr, 8
  %vv = splat f32x4 %v
  %e = extract f32 %vv, 2
  %red = reduce f32 %vv
  %d = fma f32 %red, %e, 2.5
  store f32 %d, %addr, 4
  %i2 = add i64 %i, 1
  %c2 = icmp lt i64 %i2, %n
  condbr %c2, loop, exit
exit:
  %zf = sitofp i64 %m to f32
  %cf = fcmp gt f32 %zf, 0.5
  %s = select %cf, f32 %zf, 1.0
  ret f32 %s
}

func @leaf(%x: i64) -> i64 {
entry:
  %a = mul i64 %x, 3
  %b = srem i64 %a, 7
  %sh = shl i64 %b, 2
  %t = trunc i64 %sh to i32
  %w = zext i32 %t to i64
  switch i64 %w, dflt [1: one, 2: two]
one:
  ret i64 1
two:
  %f = fdiv f64 2.0, 4.0
  %fi = fptosi f64 %f to i64
  ret i64 %fi
dflt:
  ret i64 %w
}
`

func codecModule(t *testing.T) *Module {
	t.Helper()
	m, err := Parse(codecSource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	m.Loops = append(m.Loops,
		LoopMeta{ID: 1, File: "main.c", Line: 4, FuncName: "main", Header: "loop"},
		LoopMeta{ID: 2, File: "leaf.c", Line: 9, FuncName: "leaf", Header: "entry"},
	)
	return m
}

// TestBinaryRoundTrip pins that encode→decode preserves the module
// exactly: the decoded module prints byte-identically, verifies, and
// re-encodes to the same bytes (determinism).
func TestBinaryRoundTrip(t *testing.T) {
	m := codecModule(t)
	data := EncodeModule(m)
	got, err := DecodeModule(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := Verify(got); err != nil {
		t.Fatalf("decoded module does not verify: %v", err)
	}
	if want, have := Print(m), Print(got); want != have {
		t.Fatalf("decoded module prints differently:\nwant:\n%s\nhave:\n%s", want, have)
	}
	if len(got.Loops) != 2 || got.Loops[1].Header != "entry" {
		t.Fatalf("loop metadata lost: %+v", got.Loops)
	}
	if lm, ok := got.LoopMetaByID(1); !ok || lm.FuncName != "main" {
		t.Fatalf("LoopMetaByID(1) = %+v, %v", lm, ok)
	}
	if data2 := EncodeModule(got); string(data2) != string(data) {
		t.Fatal("re-encoding the decoded module changed the bytes")
	}
	if f := got.FuncByName("main"); f == nil || f.SourceFile != "main.c" || f.SourceLine != 3 {
		t.Fatalf("function metadata lost: %+v", f)
	}
	if v, ok := got.FuncByName("main").Hint("trip_multiple.loop"); !ok || v != 4 {
		t.Fatalf("hint lost: %d, %v", v, ok)
	}
}

// TestBinaryDeterministic pins that two independent builds of the same
// source encode to identical bytes (the property content addressing
// relies on).
func TestBinaryDeterministic(t *testing.T) {
	a := EncodeModule(codecModule(t))
	b := EncodeModule(codecModule(t))
	if string(a) != string(b) {
		t.Fatal("encoding is not deterministic across module builds")
	}
}

// TestBinaryDecodeRobust pins that no truncation or single-byte
// corruption of a valid encoding can panic the decoder: every mangled
// input either decodes (harmless flips in names or constants) or
// returns an error.
func TestBinaryDecodeRobust(t *testing.T) {
	data := EncodeModule(codecModule(t))
	decode := func(b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decoder panicked: %v", r)
			}
		}()
		_, _ = DecodeModule(b)
	}
	for cut := 0; cut < len(data); cut++ {
		decode(data[:cut])
	}
	for i := 0; i < len(data); i++ {
		mangled := append([]byte(nil), data...)
		mangled[i] ^= 0x5a
		decode(mangled)
	}
}

// TestBinaryVersionMismatch pins that a foreign codec version is
// rejected with a version error, not misparsed.
func TestBinaryVersionMismatch(t *testing.T) {
	data := EncodeModule(codecModule(t))
	data[0] = 0xfe
	if _, err := DecodeModule(data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want codec version error, got %v", err)
	}
}

// TestBinaryTrailingBytes pins that trailing garbage is rejected — a
// well-formed prefix must not silently pass for the whole artifact.
func TestBinaryTrailingBytes(t *testing.T) {
	data := append(EncodeModule(codecModule(t)), 0x00)
	if _, err := DecodeModule(data); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes error, got %v", err)
	}
}

// TestBinaryDecodeRejectsNonCanonical pins that every decodable module
// has exactly one encoding, so decode∘encode is the identity on
// anything that decodes: an overlong varint, unsorted hint keys, an
// unnamed value, a constant whose tag disagrees with its type, and an
// index beyond every table are all errors.
func TestBinaryDecodeRejectsNonCanonical(t *testing.T) {
	m, err := Parse(`module "c"

func @f(%n: i64) -> f64 !hint "a" 1 !hint "b" 2 {
entry:
  %value = add i64 %n, 7
  %w = sitofp i64 %value to f64
  %r = fadd f64 %w, 1.5
  ret f64 %r
}
`)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeModule(m)
	if _, err := DecodeModule(data); err != nil {
		t.Fatal(err)
	}
	patch := func(old, new []byte) []byte {
		t.Helper()
		if bytes.Count(data, old) != 1 {
			t.Fatalf("pattern % x not unique in the encoding", old)
		}
		return bytes.Replace(data, old, new, 1)
	}
	i64, f64 := byte(KI64), byte(KF64)
	for name, bad := range map[string][]byte{
		// The module name's length, 1, written in two bytes.
		"overlong varint": append([]byte{data[0], data[1] | 0x80, 0}, data[2:]...),
		"unsorted hints":  patch([]byte("\x01a\x02\x01b\x04"), []byte("\x01b\x04\x01a\x02")),
		"unnamed value":   patch([]byte("\x05value"), []byte{0}),
		"int-tagged float": patch(
			[]byte{refConstFloat, f64, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f},
			[]byte{refConstInt, f64, 0, 0x02}),
		"value index past MaxInt": patch(
			[]byte{refValue, 0, refConstInt, i64, 0, 0x0e},
			[]byte{refValue, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, refConstInt, i64, 0, 0x0e}),
	} {
		if _, err := DecodeModule(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
