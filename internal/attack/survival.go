package attack

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// GadgetSurvival quantifies the §7.3 byte-for-byte comparison ("under kR^X
// no gadget remained at its original location"): it counts the gadgets
// ScanGadgets finds in kernel a and how many of them still have identical
// bytes at the same offset in kernel b. The two kernels must be built from
// the same sources (typically with different seeds).
func GadgetSurvival(a, b *kernel.Kernel) (total, surviving int) {
	return survival(a.Img.Text, b.Img.Text)
}

// survival counts ScanGadgets' windows over a, without building their
// instructions, and those of them whose bytes b repeats at the same offset.
// It shards like ScanGadgets.
func survival(a, b []byte) (total, surviving int) {
	for _, c := range shard(len(a), func(lo, hi int) [2]int { return survivalRange(a, b, lo, hi) }) {
		total += c[0]
		surviving += c[1]
	}
	return total, surviving
}

// survivalRange is survival over the ret bytes whose index falls in
// [lo, hi). A window survives when b has its ret byte and every byte back
// to its start, so the comparison extends one byte per window.
func survivalRange(a, b []byte, lo, hi int) [2]int {
	var n [2]int
	for i := lo; i < hi; i++ {
		if a[i] != 0xC3 {
			continue
		}
		same := i < len(b) && b[i] == 0xC3
		for back := 1; back <= maxGadgetBack && back <= i; back++ {
			start := i - back
			same = same && a[start] == b[start]
			if _, ok := gadgetWindow(a[start : i+1]); ok {
				n[0]++
				if same {
					n[1]++
				}
			}
		}
	}
	return n
}

// RaceHazard demonstrates the §5.3 race window of return-address
// encryption: the caller's callq pushes the return address in cleartext,
// and only the callee's prologue (1–3 instructions later) encrypts it. An
// attacker who can probe the stack inside that window — here modelled by
// single-stepping, standing in for a racing sibling thread with the leak
// primitive — observes the raw return address.
func RaceHazard(target *kernel.Kernel) Result {
	res := Result{Name: "race-hazard", Stage: "window-probe"}
	if err := target.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		res.Detail = "user setup failed"
		return res
	}
	fStart, fEnd, ok := funcRange(target, "strncpy_from_user")
	if !ok {
		res.Detail = "victim function not found"
		return res
	}
	textStart, textEnd := target.Sym("_text"), target.Sym("_etext")

	c := target.CPU
	c.Mode = cpu.User
	c.RIP = kernel.UserCode
	c.SetReg(isa.RSP, kernel.UserStack+kernel.UserStackPgs*mem.PageSize-128)
	c.SetReg(isa.RAX, kernel.SysOpen)
	c.SetReg(isa.RDI, kernel.UserBuf)
	for i := 0; i < 1<<20; i++ {
		if c.RIP >= fStart && c.RIP < fEnd {
			// First instruction inside the victim: its prologue has not
			// yet run. The slot at (%rsp) holds the cleartext RA.
			v, f := c.AS.Read(c.Reg(isa.RSP), 8)
			if f == nil && v >= textStart && v < textEnd {
				res.Success = true
				res.Detail = "cleartext return address observed before prologue encryption"
				return res
			}
			res.Detail = "slot already mangled at function entry"
			return res
		}
		stop, trap := c.Step()
		if trap != nil || stop != cpu.StepContinue {
			res.Detail = "victim never reached"
			return res
		}
	}
	res.Detail = "window not found"
	return res
}
