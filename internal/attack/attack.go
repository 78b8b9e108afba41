package attack

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// Result is the outcome of one attack scenario.
type Result struct {
	Name    string
	Success bool   // the attacker reached uid 0 (or wielded a gadget)
	Stage   string // the stage reached (or where the attack died)
	Detail  string
}

func (r Result) String() string {
	v := "FAILED"
	if r.Success {
		v = "SUCCEEDED"
	}
	return fmt.Sprintf("%-16s %s at %s: %s", r.Name, v, r.Stage, r.Detail)
}

// Attacker drives a target kernel through its user-reachable interface.
type Attacker struct {
	K *kernel.Kernel
}

// Leak invokes the arbitrary-read vulnerability. ok=false means the read
// was blocked (the kernel halted or trapped — a kR^X violation).
func (a *Attacker) Leak(addr uint64) (uint64, bool) {
	r := a.K.Syscall(kernel.SysLeak, addr)
	if r.Failed {
		return 0, false
	}
	return r.Ret, true
}

// LeakRange reads n bytes starting at addr, 8 at a time. It stops at the
// first blocked read.
func (a *Attacker) LeakRange(addr uint64, n int) ([]byte, bool) {
	out := make([]byte, 0, n)
	for off := 0; off < n; off += 8 {
		v, ok := a.Leak(addr + uint64(off))
		if !ok {
			return out, false
		}
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out, true
}

// UID returns the current uid (host-side ground truth; the attacker's
// success criterion).
func (a *Attacker) UID() uint64 {
	b, err := a.K.Space.AS.Peek(a.K.Sym("cred"), 8)
	if err != nil {
		return ^uint64(0)
	}
	return binary.LittleEndian.Uint64(b)
}

// Hijack plants target into dev_ops[0] and triggers the indirect call with
// the given argument (the function-pointer corruption primitive).
func (a *Attacker) Hijack(target, arg uint64) *kernel.SyscallResult {
	if r := a.K.Syscall(kernel.SysPlant, 0, target); r.Failed {
		return r
	}
	return a.K.Syscall(kernel.SysTrigger, arg)
}

// SmashChain delivers a ROP chain through the kernel stack overflow: 64
// filler bytes, then the chain starting at raOffset bytes past the buffer
// (64 for an unprotected/X-encrypted frame, 64 or 72 when decoys shift the
// layout).
func (a *Attacker) SmashChain(chain []uint64, raOffset int) *kernel.SyscallResult {
	payload := make([]byte, raOffset)
	for i := range payload {
		payload[i] = 0x41
	}
	for _, w := range chain {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	if err := a.K.WriteUser(16384, payload); err != nil {
		return &kernel.SyscallResult{Failed: true}
	}
	return a.K.Syscall(kernel.SysStackSmash, kernel.UserBuf+16384, uint64(len(payload)))
}

// textWindow bounds the JIT-ROP code harvest: the attacker discloses at
// most this much code, a page at a time, and stops earlier at the first
// signature hit or the first blocked read.
const textWindow = 512 << 10

// pageSize is the unit the JIT-ROP harvest discloses before each search.
const pageSize = 4096

// harvest discloses code one page at a time from start through leak, the
// way a just-in-time code-reuse attacker does, and returns the window
// offset of the lowest occurrence of pat (-1 if none), the number of bytes
// read, and whether a read was blocked. After each page it searches only
// the new bytes plus the last len(pat)-1 bytes of the page before, so a
// signature straddling a page boundary is found, and at the same offset a
// search of the whole window would report. It stops at the first hit, at
// the first blocked read (searching what that page yielded), or at
// textWindow. An empty pat hits at offset 0 once the first page is read.
func harvest(leak func(uint64) (uint64, bool), start uint64, pat []byte) (hit, n int, blocked bool) {
	carry := max(len(pat)-1, 0)
	buf := make([]byte, 0, carry+pageSize)
	for n < textWindow {
		base := n - len(buf) // window offset of buf[0]
		for end := n + pageSize; n < end; n += 8 {
			v, ok := leak(start + uint64(n))
			if !ok {
				blocked = true
				break
			}
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if i := bytes.Index(buf, pat); i >= 0 {
			return base + i, n, blocked
		}
		if blocked {
			break
		}
		buf = buf[:copy(buf, buf[len(buf)-min(carry, len(buf)):])]
	}
	return -1, n, blocked
}

// DirectROP mounts the precomputed-address attack of §7.3 ("Direct
// ROP/JOP"): the attacker builds the ROP chain offline against a reference
// image (ref — same kernel, same configuration, different/unknown seed) and
// fires it blind at the target. This models the converted CVE-2013-2094
// exploit: it works when the target's layout matches the reference and
// collapses under fine-grained KASLR.
func DirectROP(target, ref *kernel.Kernel) Result {
	res := Result{Name: "direct-rop", Stage: "offline-prep"}
	a := &Attacker{K: target}

	// Offline: gadget discovery on the attacker's own copy.
	pop, ok := FirstPopRet(ref.Img.Text, ref.Sym("_text"), isa.RDI)
	if !ok {
		res.Detail = "no pop %rdi gadget in reference image"
		return res
	}
	chain := []uint64{pop.Addr, 0 /* uid */, ref.Sym("do_set_uid"), cpu.StopMagic}

	res.Stage = "payload-delivery"
	r := a.SmashChain(chain, 64)
	if a.UID() == 0 {
		res.Success = true
		res.Detail = "uid=0 via precomputed gadget chain"
		return res
	}
	how := "delivery failed"
	if r.Run != nil {
		how = fmt.Sprintf("run ended with %v", r.Run.Reason)
	}
	res.Detail = "chain landed nowhere useful (" + how + ")"
	return res
}

// JITROP mounts the direct JIT-ROP attack: use the arbitrary read to leak
// code pointers from the (readable, non-randomized) syscall table, disclose
// the code around them page by page until the do_set_uid signature turns
// up, then exploit via the function-pointer hijack (whole-function/
// arity-matched reuse, unaffected by return-address protection — the
// residual data-only channel §7.3 documents).
func JITROP(target *kernel.Kernel) Result {
	res := Result{Name: "jit-rop", Stage: "pointer-harvest"}
	a := &Attacker{K: target}

	// Step 1: leak code pointers from the syscall dispatch table (data).
	tbl := target.Sym("sys_call_table") // data addresses are not randomized
	var minPtr uint64 = ^uint64(0)
	for i := 0; i < kernel.NumSyscalls; i++ {
		v, ok := a.Leak(tbl + uint64(i)*8)
		if !ok {
			res.Detail = "syscall table unreadable?!"
			return res
		}
		if v != 0 && v < minPtr {
			minPtr = v
		}
	}

	// Step 2: harvest code around the leaked pointers, searching each page
	// for the privilege-escalation target as it arrives: its first
	// instruction loads the well-known cred address. The attacker reads
	// until the signature turns up, a read is blocked (R^X violation) or
	// the window is exhausted; running off the end of .text into unmapped
	// space also stops the harvest, but whatever was read stays usable.
	// A signature that cannot be encoded leaves pat empty, which stops the
	// harvest after the first page; the error is reported at gadget search.
	res.Stage = "code-harvest"
	pat, patErr := MovR8ImmPattern(target.Sym("cred"))
	start := minPtr &^ (pageSize - 1)
	hit, n, _ := harvest(a.Leak, start, pat)
	if n < pageSize {
		res.Detail = fmt.Sprintf("code read blocked after %d bytes (R^X)", n)
		return res
	}

	// Step 3: locate the privilege-escalation target.
	res.Stage = "gadget-search"
	if patErr != nil {
		res.Detail = patErr.Error()
		return res
	}
	if hit < 0 {
		res.Detail = "do_set_uid signature not found in harvested code"
		return res
	}
	targetAddr := start + uint64(hit)

	// Step 4: exploit via the fptr hijack with a matching-arity call.
	res.Stage = "exploitation"
	a.Hijack(targetAddr, 0)
	if a.UID() == 0 {
		res.Success = true
		res.Detail = fmt.Sprintf("uid=0 via code harvested at %#x", targetAddr)
		return res
	}
	res.Detail = "hijacked call did not reach do_set_uid"
	return res
}

// HarvestStack leaks the kernel stack (ordinary readable data — §5.2.2)
// and returns every word that looks like a kernel-text pointer.
func (a *Attacker) HarvestStack(words int) ([]uint64, bool) {
	top := a.K.CPU.KernelStackTop
	raw, ok := a.LeakRange(top-uint64(words)*8, words*8)
	if !ok {
		return nil, false
	}
	var ptrs []uint64
	for off := 0; off+8 <= len(raw); off += 8 {
		v := binary.LittleEndian.Uint64(raw[off:])
		// Plausible kernel code pointer: inside the top 2GB.
		if v >= 0xffffffff80000000 && v != cpu.StopMagic {
			ptrs = append(ptrs, v)
		}
	}
	return ptrs, true
}

// IndirectJITROP mounts the Conti-style indirect attack: prime the kernel
// stack with deep call chains, harvest return addresses from the stack
// residue, and wield each harvested pointer through the fptr hijack. The
// returned result counts how many harvested pointers were usable (executed
// without tripping a tripwire or fault).
func IndirectJITROP(target *kernel.Kernel) Result {
	res := Result{Name: "indirect-jit-rop", Stage: "stack-priming"}
	a := &Attacker{K: target}

	// Prime: syscalls with nested calls leave return addresses behind.
	if err := target.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		res.Detail = "user setup failed"
		return res
	}
	target.Syscall(kernel.SysOpen, kernel.UserBuf)
	target.Syscall(kernel.SysExecve, kernel.UserBuf)

	res.Stage = "ra-harvest"
	ptrs, ok := a.HarvestStack(256)
	if !ok {
		res.Detail = "stack leak blocked"
		return res
	}
	if len(ptrs) == 0 {
		res.Detail = "no code pointers on the stack (encrypted or zapped)"
		return res
	}

	// Wield each candidate. A usable harvested pointer executes benignly
	// (a call-preceded gadget the attacker can chain); a decoy lands on
	// its int3 tripwire, which halts the system — one wrong guess burns
	// the exploit, hence P_succ = 1/2^n. Candidates that crash further
	// downstream are merely useless, not detections.
	res.Stage = "gadget-use"
	usable, tripwires, crashed := 0, 0, 0
	for _, p := range ptrs {
		r := a.Hijack(p, 7)
		switch {
		case !r.Failed:
			usable++
		case r.Run != nil && r.Run.Trap != nil &&
			r.Run.Trap.Kind == cpu.TrapBreakpoint && r.Run.Trap.RIP == p:
			tripwires++
		default:
			crashed++
		}
	}
	res.Detail = fmt.Sprintf("%d harvested, %d usable, %d tripwires, %d crashed",
		len(ptrs), usable, tripwires, crashed)
	res.Success = usable > 0 && tripwires == 0
	return res
}

// SmashWithHarvestedRA smashes the stack using a harvested return address
// as the (single-gadget) payload — the control-flow redirection building
// block of an indirect JIT-ROP chain. raOffset selects which slot of a
// possible decoy pair the attacker bets on. Success means the run ended on
// the sentinel stop address — the harvested gadget executed and returned
// into the rest of the chain, rather than trapping or halting. Alongside it
// the attempt's emulated cycle cost is reported: a failed bet is not free,
// and the per-attempt cost is what prices the 1/2^n decoy-guessing game.
func (a *Attacker) SmashWithHarvestedRA(ra uint64, raOffset int) (ok bool, cycles uint64) {
	before := a.K.CPU.Cycles
	r := a.SmashChain([]uint64{ra, cpu.StopMagic, cpu.StopMagic}, raOffset)
	ok = r.Run != nil && r.Run.Reason == cpu.StopReturn
	return ok, a.K.CPU.Cycles - before
}
