package isa

import (
	"errors"
	"math/rand"
	"testing"
)

// TestDecodeErrorTexts pins Decode's error texts and sentinels for every kind
// of bad encoding, and checks that TryDecode rejects the same inputs.
func TestDecodeErrorTexts(t *testing.T) {
	// mem is a well-formed memory operand: (%rbx), 8 bytes wide.
	mem := func(mode, base, index, scale byte) []byte {
		return []byte{mode, base, index, scale, 0, 0, 0, 0}
	}
	good := mem(0x31, byte(RBX), 0xff, 1)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	op := func(o Opcode, body ...byte) []byte { return append([]byte{byte(o)}, body...) }
	cases := []struct {
		name string
		in   []byte
		is   error
		text string
	}{
		{"empty", nil, ErrTruncated, "isa: truncated instruction"},
		{"opcode 0x00", []byte{0x00}, ErrBadOpcode, "isa: undefined opcode: 0x00"},
		{"opcode 0xff", []byte{0xff, 1, 2}, ErrBadOpcode, "isa: undefined opcode: 0xff"},
		{"short rel32", op(JMP, 1, 2), ErrTruncated, "isa: truncated instruction"},
		{"short mem imm32", cat(op(MOVmi), good, []byte{1, 2}), ErrTruncated, "isa: truncated instruction"},
		{"reg", op(PUSH, 64), ErrBadEncoding, "isa: malformed operand encoding: register 64"},
		{"reg imm64", op(MOVri, 32, 0, 0, 0, 0, 0, 0, 0, 0), ErrBadEncoding, "isa: malformed operand encoding: register 32"},
		{"reg imm32", op(ADDri, 200, 0, 0, 0, 0), ErrBadEncoding, "isa: malformed operand encoding: register 200"},
		{"reg imm8", op(SHLri, 17, 3), ErrBadEncoding, "isa: malformed operand encoding: register 17"},
		{"reg reg", op(MOVrr, 1, 99), ErrBadEncoding, "isa: malformed operand encoding: registers 1,99"},
		{"reg mem", cat(op(MOVrm, 77), good), ErrBadEncoding, "isa: malformed operand encoding: register 77"},
		{"mem reg", cat(op(MOVmr), good, []byte{40}), ErrBadEncoding, "isa: malformed operand encoding: register 40"},
		{"mem mode", cat(op(MOVrm, 0), mem(0x39, byte(RBX), 0xff, 1)), ErrBadEncoding, "isa: malformed operand encoding: mem mode byte 0x39"},
		{"mem base", cat(op(MOVrm, 0), mem(0x31, 16, 0xff, 1)), ErrBadEncoding, "isa: malformed operand encoding: base register 16"},
		{"mem absent base", cat(op(MOVrm, 0), mem(0x30, 3, 0xff, 1)), ErrBadEncoding, "isa: malformed operand encoding: absent base encoded as 3"},
		{"mem index", cat(op(MOVrm, 0), mem(0x33, byte(RBX), 20, 1)), ErrBadEncoding, "isa: malformed operand encoding: index register 20"},
		{"mem absent index", cat(op(MOVrm, 0), mem(0x31, byte(RBX), 5, 1)), ErrBadEncoding, "isa: malformed operand encoding: absent index encoded as 5"},
		{"mem rip-relative base", cat(op(MOVrm, 0), mem(0x35, byte(RBX), 0xff, 1)), ErrBadEncoding, "isa: malformed operand encoding: rip-relative with base/index"},
		{"mem scale", cat(op(MOVrm, 0), mem(0x31, byte(RBX), 0xff, 3)), ErrBadEncoding, "isa: malformed operand encoding: scale 3"},
		{"mem only", cat(op(CALLM), mem(0x31, byte(RBX), 0xff, 0)), ErrBadEncoding, "isa: malformed operand encoding: scale 0"},
		{"mem imm32", cat(op(MOVmi), mem(0x80, byte(RBX), 0xff, 1), []byte{0, 0, 0, 0}), ErrBadEncoding, "isa: malformed operand encoding: mem mode byte 0x80"},
		{"condition", op(JCC, 0xee, 0, 0, 0, 0), ErrBadEncoding, "isa: malformed operand encoding: condition 238"},
		{"string flags", op(MOVS, 0x02), ErrBadEncoding, "isa: malformed operand encoding: string flags 0x02"},
		{"bound register", cat(op(BNDCU, 9), good), ErrBadEncoding, "isa: malformed operand encoding: bound register 9"},
		{"bound mem", cat(op(BNDCU, 0), mem(0x31, byte(RBX), 0xff, 5)), ErrBadEncoding, "isa: malformed operand encoding: scale 5"},
	}
	for _, c := range cases {
		in, n, err := Decode(c.in)
		if err == nil {
			t.Errorf("%s: decoded %v (%d bytes), want an error", c.name, in, n)
			continue
		}
		if !errors.Is(err, c.is) {
			t.Errorf("%s: error %q is not %v", c.name, err, c.is)
		}
		if err.Error() != c.text {
			t.Errorf("%s: error %q, want %q", c.name, err, c.text)
		}
		if n != 0 || in != (Instr{}) {
			t.Errorf("%s: failed decode returned %v, %d", c.name, in, n)
		}
		if _, _, ok := TryDecode(c.in); ok {
			t.Errorf("%s: TryDecode accepted an input Decode rejects", c.name)
		}
	}
}

// TestTryDecodeMatchesDecode: at every offset of random bytes and of real
// code, TryDecode returns what Decode returns, with validity for the error.
func TestTryDecodeMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 1<<14)
	rng.Read(buf)
	var code []byte
	for _, in := range []Instr{Load(RAX, Mem(RBX, 8)), Ret(), Syscall(), {Op: JMP, Imm: -5}} {
		var err error
		if code, err = in.Encode(code); err != nil {
			t.Fatal(err)
		}
	}
	valid := 0
	for _, b := range [][]byte{buf, code} {
		for off := range b {
			want, wn, err := Decode(b[off:])
			got, gn, ok := TryDecode(b[off:])
			if ok != (err == nil) || got != want || gn != wn {
				t.Fatalf("offset %d: TryDecode = %v, %d, %v; Decode = %v, %d, %v", off, got, gn, ok, want, wn, err)
			}
			if ok {
				valid++
			}
		}
	}
	if valid == 0 {
		t.Fatal("no offset decoded; the comparison covered only failures")
	}
}
