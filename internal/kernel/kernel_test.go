package kernel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/diversify"
	"repro/internal/sfi"
)

func boot(t *testing.T, cfg core.Config) *Kernel {
	t.Helper()
	k, err := Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func sysOK(t *testing.T, k *Kernel, nr uint64, args ...uint64) uint64 {
	t.Helper()
	r := k.Syscall(nr, args...)
	if r.Failed {
		t.Fatalf("syscall %d failed: %v trap=%v haltrip=%#x", nr, r.Run.Reason, r.Run.Trap, r.Run.HaltRIP)
	}
	return r.Ret
}

// exerciseSyscalls drives the full syscall surface and checks semantics.
func exerciseSyscalls(t *testing.T, k *Kernel) {
	t.Helper()
	if got := sysOK(t, k, SysNull); got != 0 {
		t.Errorf("null: %d", got)
	}
	if got := sysOK(t, k, SysGetpid); got != 1 {
		t.Errorf("getpid: %d", got)
	}

	// open/read/write/fstat/close round trip.
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		t.Fatal(err)
	}
	fd := sysOK(t, k, SysOpen, UserBuf)
	if int64(fd) < 0 {
		t.Fatalf("open: %d", int64(fd))
	}
	// Write 64 bytes from the user buffer into the file.
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if err := k.WriteUser(512, payload); err != nil {
		t.Fatal(err)
	}
	if got := sysOK(t, k, SysWrite, fd, UserBuf+512, 64); got != 64 {
		t.Errorf("write: %d", got)
	}
	// Reset pos via a fresh fd to read back.
	fd2 := sysOK(t, k, SysOpen, UserBuf)
	if got := sysOK(t, k, SysRead, fd2, UserBuf+1024, 64); got != 64 {
		t.Errorf("read: %d", got)
	}
	back, err := k.ReadUser(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != payload[i] {
			t.Fatalf("read-back mismatch at %d: %d != %d", i, back[i], payload[i])
		}
	}
	if got := sysOK(t, k, SysFstat, fd2, UserBuf+2048); got != 0 {
		t.Errorf("fstat: %d", got)
	}
	if got := sysOK(t, k, SysSelect, 10); got < 2 {
		t.Errorf("select: %d ready, want >= 2 (two open fds)", got)
	}
	if got := sysOK(t, k, SysClose, fd); got != 0 {
		t.Errorf("close: %d", got)
	}
	if got := sysOK(t, k, SysClose, fd); int64(got) != -1 {
		t.Errorf("double close: %d", int64(got))
	}
	if got := sysOK(t, k, SysClose, 9999); int64(got) != -1 {
		t.Errorf("close of bogus fd: %d", int64(got))
	}

	// mmap/munmap.
	first := sysOK(t, k, SysMmap, 4)
	if int64(first) < 0 {
		t.Fatalf("mmap: %d", int64(first))
	}
	if got := sysOK(t, k, SysMunmap, first, 4); got != 0 {
		t.Errorf("munmap: %d", got)
	}

	// fork/execve/exit.
	child := sysOK(t, k, SysFork)
	if child < 2 {
		t.Errorf("fork pid: %d", child)
	}
	if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
		t.Fatal(err)
	}
	if got := sysOK(t, k, SysExecve, UserBuf); got != 0 {
		t.Errorf("execve: %d", got)
	}
	// Signals.
	if got := sysOK(t, k, SysSigaction, 5, 0xdead0000); got != 0 {
		t.Errorf("sigaction old: %d", got)
	}
	if got := sysOK(t, k, SysSigaction, 5, 0xbeef0000); got != 0xdead0000 {
		t.Errorf("sigaction returns old handler: %#x", got)
	}
	if got := sysOK(t, k, SysKill, 5); got != 0 {
		t.Errorf("kill: %d", got)
	}
	if got := sysOK(t, k, SysExit); got != 0 {
		t.Errorf("exit: %d", got)
	}

	// Pipes and sockets.
	msg := make([]byte, 128)
	for i := range msg {
		msg[i] = byte(255 - i)
	}
	if err := k.WriteUser(4096, msg); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]uint64{
		{SysPipeWrite, SysPipeRead},
		{SysUnixWrite, SysUnixRead},
		{SysTCPWrite, SysTCPRead},
		{SysUDPWrite, SysUDPRead},
	} {
		if got := sysOK(t, k, pair[0], UserBuf+4096, 128); got != 128 {
			t.Fatalf("ring write %d: %d", pair[0], got)
		}
		if got := sysOK(t, k, pair[1], UserBuf+8192, 128); got != 128 {
			t.Fatalf("ring read %d: %d", pair[1], got)
		}
		out, err := k.ReadUser(8192, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != msg[i] {
				t.Fatalf("ring %d data mismatch at %d", pair[0], i)
			}
		}
	}
}

func TestVanillaKernelSyscalls(t *testing.T) {
	exerciseSyscalls(t, boot(t, core.Vanilla))
}

func TestProtectedKernelsPreserveSemantics(t *testing.T) {
	for _, cfg := range []core.Config{
		{XOM: core.XOMSFI, SFILevel: sfi.O0, Seed: 11},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 12},
		{XOM: core.XOMMPX, Seed: 13},
		{XOM: core.XOMEPT, Seed: 13},
		{Diversify: true, RAProt: diversify.RAEncrypt, Seed: 14},
		{Diversify: true, RAProt: diversify.RADecoy, Seed: 15},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 16},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 17},
		{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 18},
		{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RADecoy, Seed: 19},
	} {
		cfg := cfg
		t.Run(cfg.Name(), func(t *testing.T) {
			exerciseSyscalls(t, boot(t, cfg))
		})
	}
}

func TestFaultRoundTrip(t *testing.T) {
	for _, cfg := range []core.Config{
		core.Vanilla,
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 3},
	} {
		k := boot(t, cfg)
		// Fault on an unmapped *user* address: handled, resumes, spins.
		res := k.TriggerFault(0x00000000deadb000)
		if res.Reason != cpu.StopIret {
			t.Fatalf("%s: fault round trip: %v trap=%v", cfg.Name(), res.Reason, res.Trap)
		}
		cnt, err := k.Space.AS.Peek(k.Sym("fault_count"), 8)
		if err != nil || cnt[0] == 0 {
			t.Fatalf("%s: fault_count not bumped: %v %v", cfg.Name(), cnt, err)
		}
	}
}

func TestLeakReadsDataEverywhere(t *testing.T) {
	// The arbitrary-read vulnerability can always leak the data region —
	// kR^X does not (and cannot) prevent data leaks, only code leaks.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 7})
	credAddr := k.Sym("cred")
	r := k.Syscall(SysLeak, credAddr)
	if r.Failed {
		t.Fatalf("leak of data must succeed: %v", r.Run.Trap)
	}
	if r.Ret != 1000 {
		t.Fatalf("leaked uid = %d, want 1000", r.Ret)
	}
}

func TestLeakOfCodeBlockedBySFI(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 8})
	r := k.Syscall(SysLeak, k.Sym("_text")+64)
	if !r.Failed || !k.Violated(r) {
		t.Fatalf("code leak must trip the SFI range check: failed=%v reason=%v", r.Failed, r.Run.Reason)
	}
}

func TestLeakOfCodeBlockedByMPX(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMMPX, Seed: 9})
	r := k.Syscall(SysLeak, k.Sym("_text")+64)
	if !r.Failed || !k.Violated(r) {
		t.Fatalf("code leak must raise #BR: failed=%v reason=%v trap=%v", r.Failed, r.Run.Reason, r.Run.Trap)
	}
	if r.Run.Trap == nil || r.Run.Trap.Kind != cpu.TrapBoundRange {
		t.Fatalf("expected #BR, got %v", r.Run.Trap)
	}
}

func TestLeakOfCodeBlockedByEPT(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMEPT, Seed: 10})
	r := k.Syscall(SysLeak, k.Sym("_text")+64)
	if !r.Failed || !k.Violated(r) {
		t.Fatalf("code leak must fault under EPT: %v %v", r.Run.Reason, r.Run.Trap)
	}
}

func TestLeakOfCodeAllowedOnVanilla(t *testing.T) {
	// x86 semantics: without kR^X, executable kernel memory is readable.
	k := boot(t, core.Vanilla)
	r := k.Syscall(SysLeak, k.Sym("_text"))
	if r.Failed {
		t.Fatalf("vanilla kernel must allow code reads: %v", r.Run.Trap)
	}
	if r.Ret == 0 {
		t.Fatal("leaked code bytes are empty")
	}
}

func TestXkeysUnreadableButUsable(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 21})
	// The xkey region lies above _krx_edata: the leak primitive cannot
	// read it...
	var keyAddr uint64
	for _, a := range k.Img.KeyAddrs {
		keyAddr = a
		break
	}
	r := k.Syscall(SysLeak, keyAddr)
	if !k.Violated(r) {
		t.Fatalf("xkey leak must be blocked, got ret=%#x reason=%v", r.Ret, r.Run.Reason)
	}
	// ...yet the prologues' %rip-relative safe reads work fine (proven by
	// every other syscall succeeding).
	k2 := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 21})
	if got := sysOK(t, k2, SysGetpid); got != 1 {
		t.Fatalf("getpid: %d", got)
	}
}

func TestFtraceCloneReadsCodeLegitimately(t *testing.T) {
	// The §6 clones let tracing subsystems read code under full kR^X.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 22})
	r := k.Syscall(SysFtracePeek, k.Sym("_text")+16)
	if r.Failed {
		t.Fatalf("ftrace peek must succeed via the clone: %v %v", r.Run.Reason, r.Run.Trap)
	}
}

func TestPhysmapSynonymClosed(t *testing.T) {
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 23})
	syn, ok := k.Space.SynonymAddr(k.Sym("_text"))
	if !ok {
		t.Fatal("no synonym mapping recorded")
	}
	// Reading kernel code through its physmap alias must fault (the alias
	// is unmapped at boot) — otherwise R^X would be bypassable without
	// ever touching the code region.
	r := k.Syscall(SysLeak, syn)
	if !r.Failed {
		t.Fatalf("physmap code synonym still readable: %#x", r.Ret)
	}
	// Vanilla keeps the alias (and the weakness).
	kv := boot(t, core.Vanilla)
	synv, _ := kv.Space.SynonymAddr(kv.Sym("_text"))
	if r := kv.Syscall(SysLeak, synv); r.Failed {
		t.Fatal("vanilla physmap synonym should be readable")
	}
}

func TestGuardSectionAbsorbsStackReads(t *testing.T) {
	// The guard must exceed every uninstrumented %rsp displacement.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 24})
	if int64(k.Build.SFIStats.MaxStackDisp) >= int64(k.Img.Layout.GuardSize) {
		t.Fatalf("guard (%d) smaller than max stack displacement (%d)",
			k.Img.Layout.GuardSize, k.Build.SFIStats.MaxStackDisp)
	}
}

func TestKernelStackIsReadableData(t *testing.T) {
	// Kernel stacks live in the physmap (readable) region — the §5.2.2
	// premise that makes return addresses harvestable.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 25})
	sysOK(t, k, SysNull)
	r := k.Syscall(SysLeak, k.CPU.KernelStackTop-8)
	if r.Failed {
		t.Fatalf("kernel stack leak must succeed (it is data): %v", r.Run.Trap)
	}
}

func TestBogusSyscallNumber(t *testing.T) {
	k := boot(t, core.Vanilla)
	r := k.Syscall(NumSyscalls + 5)
	if r.Failed || int64(r.Ret) != -1 {
		t.Fatalf("bogus syscall: failed=%v ret=%d", r.Failed, int64(r.Ret))
	}
}

func TestStatsShape(t *testing.T) {
	// The corpus must be realistically shaped: some safe reads, plenty of
	// instrumentable reads, and roughly an eighth of the synthetic corpus
	// single-block.
	k := boot(t, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 26})
	st := k.Build.SFIStats
	if st.ReadsTotal < 100 {
		t.Errorf("suspiciously few reads: %d", st.ReadsTotal)
	}
	if st.RCCoalesced == 0 {
		t.Error("coalescing never fired on the corpus")
	}
	if st.SafeReads == 0 {
		t.Error("no safe reads in the corpus")
	}
	ds := k.Build.DivStats
	if ds.SingleBlockFuncs == 0 {
		t.Error("no single-block functions in the corpus")
	}
	frac := float64(ds.SingleBlockFuncs) / float64(ds.Funcs)
	if frac < 0.05 || frac > 0.30 {
		t.Errorf("single-block fraction %.2f outside the plausible band", frac)
	}
	if ds.MinEntropyBits < 30 {
		t.Errorf("entropy floor %.1f < 30 bits", ds.MinEntropyBits)
	}
}

func TestBootIsDeterministicPerSeed(t *testing.T) {
	k1 := boot(t, core.Config{Diversify: true, Seed: 42})
	k2 := boot(t, core.Config{Diversify: true, Seed: 42})
	k3 := boot(t, core.Config{Diversify: true, Seed: 43})
	a1 := k1.Sym("sys_leak")
	if a2 := k2.Sym("sys_leak"); a1 != a2 {
		t.Error("same seed must give the same layout")
	}
	if a3 := k3.Sym("sys_leak"); a1 == a3 {
		t.Error("different seeds should move functions (w.h.p.)")
	}
}

func TestHideMBaseline(t *testing.T) {
	// The split-TLB baseline (§2): code reads silently return the shadow
	// (zeros) instead of faulting, while execution and data are untouched.
	k := boot(t, core.Config{XOM: core.XOMHideM, Seed: 27})
	exerciseSyscalls(t, k)
	r := k.Syscall(SysLeak, k.Sym("_text")+64)
	if r.Failed {
		t.Fatalf("HideM reads do not fault: %v", r.Run.Trap)
	}
	if r.Ret != 0 {
		t.Fatalf("HideM must serve the zero shadow, got %#x", r.Ret)
	}
	// Data region reads still return real contents.
	if r := k.Syscall(SysLeak, k.Sym("cred")); r.Failed || r.Ret != 1000 {
		t.Fatalf("HideM data read broken: %v %d", r.Failed, r.Ret)
	}
}

func TestExtendedSyscalls(t *testing.T) {
	for _, cfg := range []core.Config{
		core.Vanilla,
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 28},
	} {
		k := boot(t, cfg)
		// getdents: six populated dentries copied out.
		got := sysOK(t, k, SysGetdents, UserBuf+8192, 16)
		if got != 6 {
			t.Errorf("%s: getdents = %d, want 6", cfg.Name(), got)
		}
		first, err := k.ReadUser(8192, 8)
		if err != nil || string(first) != "dev_zero" {
			t.Errorf("%s: first dentry name %q", cfg.Name(), first)
		}
		// uname.
		if got := sysOK(t, k, SysUname, UserBuf+12288); got != 0 {
			t.Errorf("uname ret %d", got)
		}
		uts, err := k.ReadUser(12288, 9)
		if err != nil || string(uts) != "KX64 krx " {
			t.Errorf("%s: uname %q", cfg.Name(), uts)
		}
		// yield and brk.
		if got := sysOK(t, k, SysYield); got != 0 {
			t.Errorf("yield ret %d", got)
		}
		b1 := sysOK(t, k, SysBrk, 4096)
		b2 := sysOK(t, k, SysBrk, 4096)
		if b2 != b1+4096 {
			t.Errorf("%s: brk did not advance: %#x -> %#x", cfg.Name(), b1, b2)
		}
	}
}

func TestJOPDispatchTailCall(t *testing.T) {
	// The indirect-jmp dispatcher must work under every protection combo —
	// in particular the X scheme's tail-call decryption and the D scheme's
	// stack restoration before the jmp.
	for _, cfg := range []core.Config{
		core.Vanilla,
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 29},
		{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RADecoy, Seed: 30},
		{XOM: core.XOMMPX, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 31},
	} {
		k := boot(t, cfg)
		r := k.Syscall(SysTriggerJmp, 5)
		if r.Failed {
			t.Fatalf("%s: JOP dispatch failed: %v trap=%v", cfg.Name(), r.Run.Reason, r.Run.Trap)
		}
		if r.Ret != 0x11 {
			t.Fatalf("%s: default handler result %#x", cfg.Name(), r.Ret)
		}
	}
}

func TestTenAccessorClones(t *testing.T) {
	// §6: "we cloned seven functions of the get_next and peek_next family
	// of routines, as well as memcpy, memcmp, and bitmap_copy" — ten
	// exempt accessors in total, and they must stay exempt.
	prog, err := BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ins, err := core.Instrument(prog, core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, FullCoverage: true, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	clones := 0
	for _, f := range ins.Prog.Funcs {
		if f.AccessorClone {
			clones++
			if !f.NoInstrument {
				t.Errorf("clone %s lost its exemption", f.Name)
			}
		}
	}
	if clones != 10 {
		t.Fatalf("accessor clone count = %d, want 10", clones)
	}
}

// TestOpenFDsMatchesClose checks the host-side OpenFDs mask against
// sys_close itself on every preset, in three states: a fresh boot, after
// 60 opens (dev_zero, inode 0, alternating with testfile, with two holes
// closed), and after fork()+/bin/sh has leaked descriptors. In each,
// closing fd 0..63 must return 0 exactly for the set bits and -1
// otherwise, and leave OpenFDs empty.
func TestOpenFDsMatchesClose(t *testing.T) {
	open := func(t *testing.T, k *Kernel, name string) uint64 {
		t.Helper()
		if err := k.WriteUser(0, append([]byte(name), 0)); err != nil {
			t.Fatal(err)
		}
		fd := sysOK(t, k, SysOpen, UserBuf)
		if int64(fd) < 0 {
			t.Fatalf("open %s: %d", name, int64(fd))
		}
		return fd
	}
	states := []struct {
		name string
		make func(t *testing.T, k *Kernel)
	}{
		{"fresh", nil},
		{"60-opens", func(t *testing.T, k *Kernel) {
			for i := 0; i < 60; i++ {
				open(t, k, [2]string{"dev_zero", "testfile"}[i%2])
			}
			sysOK(t, k, SysClose, 7)
			sysOK(t, k, SysClose, 32)
		}},
		{"fork-sh", func(t *testing.T, k *Kernel) {
			for i := 0; i < 3; i++ {
				sysOK(t, k, SysFork)
				sysOK(t, k, SysExecve, UserBuf)
				open(t, k, "testfile")
				sysOK(t, k, SysExecve, UserBuf)
			}
		}},
	}
	for _, cfg := range core.Presets() {
		t.Run(cfg.Name(), func(t *testing.T) {
			k, err := Boot(cfg, WithCache())
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range states {
				if st.make != nil {
					st.make(t, k)
				}
				mask := k.OpenFDs()
				if st.make != nil && mask == 0 {
					t.Fatalf("%s: no descriptor open", st.name)
				}
				for fd := uint64(0); fd < 64; fd++ {
					want := int64(-1)
					if mask>>fd&1 == 1 {
						want = 0
					}
					if got := int64(sysOK(t, k, SysClose, fd)); got != want {
						t.Errorf("%s: close(%d) = %d, OpenFDs bit says %d (mask %#x)", st.name, fd, got, want, mask)
					}
				}
				if got := k.OpenFDs(); got != 0 {
					t.Errorf("%s: OpenFDs = %#x after closing every fd", st.name, got)
				}
			}
		})
	}
}
