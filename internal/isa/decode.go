package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Decoding errors.
var (
	// ErrTruncated indicates the byte stream ended mid-instruction.
	ErrTruncated = errors.New("isa: truncated instruction")
	// ErrBadOpcode indicates an undefined opcode byte.
	ErrBadOpcode = errors.New("isa: undefined opcode")
	// ErrBadEncoding indicates malformed operand bytes.
	ErrBadEncoding = errors.New("isa: malformed operand encoding")
)

// decodeFault is why a decode failed, kept unformatted until Decode needs
// the error: err is the sentinel (nil on success), and a non-empty detail
// is a format rendered after it with the operand bytes args[:nargs].
type decodeFault struct {
	err    error
	detail string
	args   [2]byte
	nargs  int
}

var truncated = decodeFault{err: ErrTruncated}

func badEncoding(detail string, args ...byte) decodeFault {
	f := decodeFault{err: ErrBadEncoding, detail: detail}
	f.nargs = copy(f.args[:], args)
	return f
}

func (f decodeFault) error() error {
	if f.detail == "" {
		return f.err
	}
	a := []any{f.err}
	for _, b := range f.args[:f.nargs] {
		a = append(a, b)
	}
	return fmt.Errorf("%w: "+f.detail, a...)
}

func decodeMem(b []byte) (MemRef, uint8, decodeFault) {
	if len(b) < memRefBytes {
		return MemRef{}, 0, truncated
	}
	mode := b[0]
	if mode&0xC8 != 0 {
		return MemRef{}, 0, badEncoding("mem mode byte 0x%02x", mode)
	}
	m := MemRef{Base: NoReg, Index: NoReg, Scale: b[3], Disp: int32(binary.LittleEndian.Uint32(b[4:8]))}
	if mode&1 != 0 {
		if b[1] >= NumGPR {
			return MemRef{}, 0, badEncoding("base register %d", b[1])
		}
		m.Base = Reg(b[1])
	} else if b[1] != 0xFF {
		return MemRef{}, 0, badEncoding("absent base encoded as %d", b[1])
	}
	if mode&2 != 0 {
		if b[2] >= NumGPR {
			return MemRef{}, 0, badEncoding("index register %d", b[2])
		}
		m.Index = Reg(b[2])
	} else if b[2] != 0xFF {
		return MemRef{}, 0, badEncoding("absent index encoded as %d", b[2])
	}
	if mode&4 != 0 {
		if m.HasBase() || m.HasIndex() {
			return MemRef{}, 0, badEncoding("rip-relative with base/index")
		}
		m.RIPRel = true
	}
	switch m.Scale {
	case 1, 2, 4, 8:
	default:
		return MemRef{}, 0, badEncoding("scale %d", m.Scale)
	}
	size := uint8(1) << ((mode >> 4) & 3)
	return m, size, decodeFault{}
}

// Decode decodes the instruction at the start of b. It returns the decoded
// instruction and its length in bytes. Decoding is possible from any byte
// offset (instructions are self-delimiting once the opcode byte is read),
// which is what makes unaligned gadget discovery — and the overlapping
// tripwires of the decoy scheme — possible.
func Decode(b []byte) (in Instr, n int, err error) {
	// decode writes straight into the named result: a local Instr copied
	// out on return made every valid decode about a quarter slower.
	n, f := decode(b, &in)
	if f.err != nil {
		return Instr{}, 0, f.error()
	}
	return in, n, nil
}

// TryDecode decodes like Decode but reports only whether b starts with a
// valid instruction, never building an error. It is for callers that try
// many offsets and discard the failures, like the gadget scanner.
func TryDecode(b []byte) (in Instr, n int, ok bool) {
	n, f := decode(b, &in)
	if f.err != nil {
		return Instr{}, 0, false
	}
	return in, n, true
}

// decode is the decoder body behind Decode and TryDecode. It fills *in,
// which must be zero, and leaves it partly written when it fails.
func decode(b []byte, in *Instr) (int, decodeFault) {
	if len(b) == 0 {
		return 0, truncated
	}
	op := Opcode(b[0])
	if !op.Valid() {
		return 0, decodeFault{err: ErrBadOpcode, detail: "0x%02x", args: [2]byte{b[0]}, nargs: 1}
	}
	in.Op = op
	n := formatLength(op.Format())
	if len(b) < n {
		return 0, truncated
	}
	body := b[1:n]
	switch op.Format() {
	case fmtNone:
	case fmtReg:
		if body[0] >= NumGPR {
			return 0, badEncoding("register %d", body[0])
		}
		in.Dst = Reg(body[0])
	case fmtRegImm64:
		if body[0] >= NumGPR {
			return 0, badEncoding("register %d", body[0])
		}
		in.Dst = Reg(body[0])
		in.Imm = int64(binary.LittleEndian.Uint64(body[1:9]))
	case fmtRegImm32:
		if body[0] >= NumGPR {
			return 0, badEncoding("register %d", body[0])
		}
		in.Dst = Reg(body[0])
		in.Imm = int64(int32(binary.LittleEndian.Uint32(body[1:5])))
	case fmtRegImm8:
		if body[0] >= NumGPR {
			return 0, badEncoding("register %d", body[0])
		}
		in.Dst = Reg(body[0])
		in.Imm = int64(body[1])
	case fmtRegReg:
		if body[0] >= NumGPR || body[1] >= NumGPR {
			return 0, badEncoding("registers %d,%d", body[0], body[1])
		}
		in.Dst, in.Src = Reg(body[0]), Reg(body[1])
	case fmtRegMem:
		if body[0] >= NumGPR {
			return 0, badEncoding("register %d", body[0])
		}
		in.Dst = Reg(body[0])
		m, size, f := decodeMem(body[1:])
		if f.err != nil {
			return 0, f
		}
		in.M, in.Size = m, size
	case fmtMemReg:
		m, size, f := decodeMem(body)
		if f.err != nil {
			return 0, f
		}
		if body[memRefBytes] >= NumGPR {
			return 0, badEncoding("register %d", body[memRefBytes])
		}
		in.M, in.Size, in.Dst = m, size, Reg(body[memRefBytes])
	case fmtMemImm32:
		m, size, f := decodeMem(body)
		if f.err != nil {
			return 0, f
		}
		in.M, in.Size = m, size
		in.Imm = int64(int32(binary.LittleEndian.Uint32(body[memRefBytes : memRefBytes+4])))
	case fmtMem:
		m, size, f := decodeMem(body)
		if f.err != nil {
			return 0, f
		}
		in.M, in.Size = m, size
	case fmtRel32:
		in.Imm = int64(int32(binary.LittleEndian.Uint32(body[0:4])))
	case fmtCondRel32:
		if body[0] >= NumCond {
			return 0, badEncoding("condition %d", body[0])
		}
		in.CC = Cond(body[0])
		in.Imm = int64(int32(binary.LittleEndian.Uint32(body[1:5])))
	case fmtImm16:
		in.Imm = int64(binary.LittleEndian.Uint16(body[0:2]))
	case fmtString:
		if body[0]&^0x0D != 0 {
			return 0, badEncoding("string flags 0x%02x", body[0])
		}
		in.SF = StrFlags(body[0])
	case fmtBndMem:
		if body[0] >= NumBnd {
			return 0, badEncoding("bound register %d", body[0])
		}
		in.Bnd = BndReg(body[0])
		m, size, f := decodeMem(body[1:])
		if f.err != nil {
			return 0, f
		}
		in.M, in.Size = m, size
	}
	return n, decodeFault{}
}

// DisasmLine is one disassembled instruction with its address.
type DisasmLine struct {
	Addr  uint64
	Bytes []byte
	Instr Instr
	Err   error // non-nil if the bytes do not decode
}

// Disassemble linearly decodes code starting at addr, skipping one byte on
// decode failure (recording the failure), until the buffer is exhausted.
func Disassemble(code []byte, addr uint64) []DisasmLine {
	var out []DisasmLine
	off := 0
	for off < len(code) {
		in, n, err := Decode(code[off:])
		if err != nil {
			out = append(out, DisasmLine{Addr: addr + uint64(off), Bytes: code[off : off+1], Err: err})
			off++
			continue
		}
		out = append(out, DisasmLine{Addr: addr + uint64(off), Bytes: code[off : off+n], Instr: in})
		off += n
	}
	return out
}
