// Package attack implements the adversary of §7.3: a Galileo-style gadget
// scanner, ROP chain construction, and the three exploitation scenarios —
// direct ROP with precomputed addresses, direct JIT-ROP (arbitrary-read
// driven code harvesting), and indirect JIT-ROP (return-address harvesting
// from kernel stacks) — plus the §5.3 substitution attack. Attackers
// interact with the kernel exclusively through its user-reachable syscall
// interface (the leak, plant/trigger, and stack-smash vulnerabilities).
package attack

import (
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
// The scan is sharded across goroutines: each ret byte is examined
// independently (its gadget windows reach back at most maxGadgetBack bytes
// into the shared, read-only code slice), so the ret-index range is split
// into contiguous chunks scanned in parallel and the per-chunk results are
// concatenated in chunk order — reproducing the sequential output exactly,
// byte for byte, for any core count.
func ScanGadgets(code []byte, base uint64) []Gadget {
	nw := runtime.GOMAXPROCS(0)
	if max := (len(code) + scanChunkMin - 1) / scanChunkMin; nw > max {
		nw = max
	}
	if nw <= 1 {
		return scanRange(code, base, 0, len(code))
	}
	chunks := make([][]Gadget, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo := w * len(code) / nw
		hi := (w + 1) * len(code) / nw
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			chunks[w] = scanRange(code, base, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var out []Gadget
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
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

// decodesTo decodes b as a full instruction sequence whose final
// instruction is ret, consuming exactly len(b) bytes. Most candidate
// windows fail to decode, so a first pass only validates and counts the
// instructions (isa.TryDecode builds no error it would discard), and only
// a window that decodes gets its exact-size slice, filled by a second pass.
func decodesTo(b []byte) ([]isa.Instr, bool) {
	n := 0
	for off := 0; ; {
		in, sz, ok := isa.TryDecode(b[off:])
		if !ok {
			return nil, false
		}
		off += sz
		n++
		if in.Op == isa.RET {
			if off != len(b) {
				return nil, false
			}
			break
		}
		if in.IsTerminator() || in.Op == isa.INT3 || off == len(b) {
			return nil, false
		}
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

// FirstPopRet returns what FindPopRet(ScanGadgets(code, base), reg) returns,
// but visits the windows in ScanGadgets' order (ret bytes ascending, then
// windows from the shortest) and stops at the first match, building no
// other gadget.
func FirstPopRet(code []byte, base uint64, reg isa.Reg) (Gadget, bool) {
	for i, b := range code {
		if b != 0xC3 {
			continue
		}
		for back := 1; back <= maxGadgetBack && back <= i; back++ {
			start := i - back
			if ins, ok := decodesTo(code[start : i+1]); ok && isPopRet(ins, reg) {
				return Gadget{Addr: base + uint64(start), Ins: ins}, true
			}
		}
	}
	return Gadget{}, false
}

// isPopRet reports whether ins is exactly "pop %reg ; ret".
func isPopRet(ins []isa.Instr, reg isa.Reg) bool {
	return len(ins) == 2 && ins[0].Op == isa.POP && ins[0].Dst == reg
}

// FindPattern returns the offsets of every occurrence of pat in code.
func FindPattern(code, pat []byte) []int {
	var out []int
	for i := 0; i+len(pat) <= len(code); i++ {
		match := true
		for j := range pat {
			if code[i+j] != pat[j] {
				match = false
				break
			}
		}
		if match {
			out = append(out, i)
		}
	}
	return out
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
