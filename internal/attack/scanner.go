// Package attack implements the adversary of §7.3: a Galileo-style gadget
// scanner, ROP chain construction, and the three exploitation scenarios —
// direct ROP with precomputed addresses, direct JIT-ROP (arbitrary-read
// driven code harvesting), and indirect JIT-ROP (return-address harvesting
// from kernel stacks) — plus the §5.3 substitution attack. Attackers
// interact with the kernel exclusively through its user-reachable syscall
// interface (the leak, plant/trigger, and stack-smash vulnerabilities).
package attack

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/isa"
)

// Gadget is a decodable instruction sequence ending in ret.
type Gadget struct {
	Addr uint64
	Ins  []isa.Instr
}

// String renders the gadget.
func (g Gadget) String() string {
	s := ""
	for i, in := range g.Ins {
		if i > 0 {
			s += " ; "
		}
		s += in.String()
	}
	return s
}

// maxGadgetBack is how many bytes before a ret the scanner explores.
const maxGadgetBack = 24

// scanChunkMin is the smallest per-goroutine slice of the ret-index range
// worth the spawn overhead; images below it are scanned inline.
const scanChunkMin = 4096

// ScanGadgets performs backward disassembly from every 0xC3 (ret) byte in
// code (mapped at base), collecting every window that decodes cleanly into
// instructions ending exactly at the ret — including sequences that start
// inside the encoding of legitimate instructions (unaligned gadgets).
//
// The scan is sharded across goroutines (see shard): each ret byte is
// examined independently (its gadget windows reach back at most
// maxGadgetBack bytes into the shared, read-only code slice), so the
// per-chunk results, concatenated in chunk order, reproduce the sequential
// output exactly, byte for byte, for any core count.
func ScanGadgets(code []byte, base uint64) []Gadget {
	chunks := shard(len(code), func(lo, hi int) []Gadget { return scanRange(code, base, lo, hi) })
	if len(chunks) == 1 {
		return chunks[0]
	}
	var out []Gadget
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// shard splits the ret-index range [0, n) into contiguous chunks, one per
// core but none under scanChunkMin, runs scan on each in parallel and
// returns the results in chunk order. A small range is scanned inline.
func shard[T any](n int, scan func(lo, hi int) T) []T {
	nw := runtime.GOMAXPROCS(0)
	if max := (n + scanChunkMin - 1) / scanChunkMin; nw > max {
		nw = max
	}
	if nw <= 1 {
		return []T{scan(0, n)}
	}
	chunks := make([]T, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			chunks[w] = scan(lo, hi)
		}(w, w*n/nw, (w+1)*n/nw)
	}
	wg.Wait()
	return chunks
}

// scanRange scans the ret bytes whose index falls in [lo, hi). Gadget
// windows may begin before lo — the chunk boundary partitions ret
// positions, not window bytes.
func scanRange(code []byte, base uint64, lo, hi int) []Gadget {
	var out []Gadget
	for i := lo; i < hi; i++ {
		if code[i] != 0xC3 {
			continue
		}
		for back := 1; back <= maxGadgetBack && back <= i; back++ {
			start := i - back
			ins, ok := decodesTo(code[start : i+1])
			if ok {
				out = append(out, Gadget{Addr: base + uint64(start), Ins: ins})
			}
		}
	}
	return out
}

// gadgetWindow reports whether b decodes as a full instruction sequence
// whose final instruction is ret, consuming exactly len(b) bytes, and how
// many instructions it holds. It builds nothing: isa.TryDecode makes no
// error it would discard, and most candidate windows fail.
func gadgetWindow(b []byte) (n int, ok bool) {
	for off := 0; ; {
		in, sz, ok := isa.TryDecode(b[off:])
		if !ok {
			return 0, false
		}
		off += sz
		n++
		if in.Op == isa.RET {
			return n, off == len(b)
		}
		if in.IsTerminator() || in.Op == isa.INT3 || off == len(b) {
			return 0, false
		}
	}
}

// decodesTo returns the instructions of a window gadgetWindow accepts, in
// an exact-size slice filled by a second pass.
func decodesTo(b []byte) ([]isa.Instr, bool) {
	n, ok := gadgetWindow(b)
	if !ok {
		return nil, false
	}
	ins := make([]isa.Instr, n)
	for i, off := 0, 0; i < n; i++ {
		var sz int
		ins[i], sz, _ = isa.TryDecode(b[off:])
		off += sz
	}
	return ins, true
}

// FindPopRet locates a "pop %reg ; ret" gadget for the requested register.
func FindPopRet(gs []Gadget, reg isa.Reg) (Gadget, bool) {
	for _, g := range gs {
		if isPopRet(g.Ins, reg) {
			return g, true
		}
	}
	return Gadget{}, false
}

// FirstPopRet returns what FindPopRet(ScanGadgets(code, base), reg) returns
// without disassembling any other window. Every opcode has one fixed
// length, so "pop %reg ; ret" has exactly one encoding: the first match in
// the scan's order (ret bytes ascending) is the first occurrence of those
// bytes, and only that one window is decoded.
func FirstPopRet(code []byte, base uint64, reg isa.Reg) (Gadget, bool) {
	pat, err := isa.Pop(reg).Encode(nil)
	if err == nil {
		pat, err = isa.Ret().Encode(pat)
	}
	if err != nil {
		return Gadget{}, false // an invalid register has no encoding to find
	}
	i := bytes.Index(code, pat)
	if i < 0 {
		return Gadget{}, false
	}
	ins, ok := decodesTo(code[i : i+len(pat)])
	if !ok {
		return Gadget{}, false
	}
	return Gadget{Addr: base + uint64(i), Ins: ins}, true
}

// isPopRet reports whether ins is exactly "pop %reg ; ret".
func isPopRet(ins []isa.Instr, reg isa.Reg) bool {
	return len(ins) == 2 && ins[0].Op == isa.POP && ins[0].Dst == reg
}

// MovR8ImmPattern builds the byte pattern of "mov $imm, %r8" — the
// signature used to locate do_set_uid (its first instruction loads the
// well-known cred address, and data addresses are not randomized). An
// unencodable immediate is reported as an error, not a panic: the scanner
// runs inside attack scenarios that must degrade to a failed stage, never
// tear down the harness.
func MovR8ImmPattern(imm uint64) ([]byte, error) {
	in := isa.MovRI(isa.R8, int64(imm))
	b, err := in.Encode(nil)
	if err != nil {
		return nil, fmt.Errorf("attack: encoding mov-imm pattern for %#x: %w", imm, err)
	}
	return b, nil
}
