package oracle

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/diversify"
	"repro/internal/fuzz"
	"repro/internal/inject"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/module"
	"repro/internal/obs"
	"repro/internal/patch"
	"repro/internal/sfi"
)

// Axis value sets of the workload table.
func all(a int) []int {
	vs := make([]int, len(axes[a].values))
	for i := range vs {
		vs[i] = i
	}
	return vs
}

var engines, boots, oneOrFour = all(axEngine), all(axBoot), []int{0, 3}

// kernelAxes are the axes every kernel workload runs under.
func kernelAxes() [numAxes][]int {
	return [numAxes][]int{axEngine: engines, axBoot: boots, axObservers: all(axObservers)}
}

var (
	vanilla = core.Vanilla
	mpxX    = core.Presets()[len(core.Presets())-1] // the fully protected column
	sfiX    = core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 42}
)

// workloads is the workload table.
var workloads = func() []workload {
	var ws []workload
	for _, cfg := range []core.Config{vanilla, mpxX} {
		v := kernelAxes()
		v[axWorkers] = oneOrFour // concurrent forks race to publish and adopt
		ws = append(ws, workload{name: "table1/" + cfg.Name(), kind: "table1", cfg: cfg, values: v, blocks: true, run: table1(cfg)})
	}
	for _, name := range []string{"DirectROP", "JITROP", "IndirectJITROP"} {
		for _, cfg := range []core.Config{vanilla, mpxX} {
			// Protected columns may stop the attack before a block forms.
			ws = append(ws, workload{name: "attack/" + name + "/" + cfg.Name(), kind: "attack", cfg: cfg,
				values: kernelAxes(), blocks: cfg == vanilla, run: attackRun(name, cfg)})
		}
	}
	for _, cfg := range ladderConfigs() {
		ws = append(ws, workload{name: "ladder/" + ladderName(cfg), kind: "ladder", cfg: cfg,
			values: kernelAxes(), blocks: true, run: ladder(cfg)})
	}
	v := kernelAxes()
	v[axStore] = all(axStore)
	ws = append(ws, workload{name: "selfmod", kind: "selfmod", cfg: vanilla, values: v, blocks: true, run: selfMod})
	for _, every := range []uint64{7, 64, 512} {
		ws = append(ws, workload{name: fmt.Sprintf("inject/every=%d", every), kind: "inject", cfg: injectConfig,
			values: kernelAxes(), blocks: every > 7, run: injected(every)})
	}
	// Most of the 200-iteration campaigns' instructions are sys_select's
	// register loop, which the fixpoint skip makes cheap: stepped uncached
	// or under an exec probe, such a campaign costs about 25 compiled ones,
	// and cached about six. They run the cached stepper and the block
	// engine at one and four workers, against the block engine at one
	// worker (the engine campaigns run under by default), a reference each
	// test binary that runs them computes again. The seed-17 campaigns run
	// every engine and observer against the uncached stepper, the
	// uninjected one at every worker count and the injected one, whose
	// trace carries fault events, at one and four.
	long := [numAxes][]int{axEngine: {compiled, 1, compiled + 1}, axBoot: boots[1:], axWorkers: oneOrFour,
		axStore: all(axStore), axResume: all(axResume)}
	short := long
	short[axEngine], short[axObservers], short[axWorkers] = engines, all(axObservers)[:2], all(axWorkers)
	traced := [numAxes][]int{axEngine: engines, axBoot: boots[1:], axObservers: all(axObservers)[:2], axWorkers: oneOrFour}
	// The 150-iteration SFI+X campaign, a sixth the cost of the 200-iteration
	// one, runs the compiled engines at every worker count and store.
	blocks := long
	blocks[axEngine], blocks[axWorkers] = []int{compiled, compiled + 1}, all(axWorkers)
	plan17, plan42 := inject.DefaultPlan(17), inject.DefaultPlan(42)
	for _, c := range []struct {
		name   string
		opts   fuzz.Options
		values [numAxes][]int
	}{
		{"vanilla-seed17", fuzz.Options{Iters: 96, Seed: 17, Config: vanilla}, short},
		{"sfix-inject-seed42", fuzz.Options{Iters: 200, Seed: 42, Config: sfiX, Plan: &plan42}, long},
		{"sfix-inject-seed42-150iters", fuzz.Options{Iters: 150, Seed: 42, Config: sfiX, Plan: &plan42}, blocks},
		{"vanilla-seed42", fuzz.Options{Iters: 200, Seed: 42, Config: core.Config{Seed: 42}}, long},
		{"vanilla-inject-seed17", fuzz.Options{Iters: 64, Seed: 17, Config: vanilla, Plan: &plan17}, traced},
	} {
		ws = append(ws, workload{name: "fuzz/" + c.name, kind: "fuzz", cfg: c.opts.Config, values: c.values,
			blocks: true, slow: c.opts.Iters == 200, campaign: &c.opts})
	}
	return ws
}()

// rig boots one run's kernels at a point and holds their observers.
type rig struct {
	t       *testing.T
	p       point
	kernels []*kernel.Kernel
	tracers []*obs.Tracer
	profs   []*obs.Profiler
	probes  []*probeSet
}

// images memoizes the fresh compile behind the image boot, per config.
var images = map[core.Config]*core.BuildResult{}

func (r *rig) boot(cfg core.Config) *kernel.Kernel {
	r.t.Helper()
	opts := []kernel.BootOption{kernel.WithCache()}
	if r.p[axBoot] == imageBoot {
		key := cfg
		key.FaultPlan = nil
		if images[key] == nil {
			prog, err := kernel.BuildCorpus()
			if err == nil {
				images[key], err = core.Build(prog, key)
			}
			if err != nil {
				r.t.Fatal(err)
			}
		}
		opts[0] = kernel.WithImage(images[key])
	}
	var tr *obs.Tracer
	if r.p[axObservers] == tracerProfiler {
		tr = obs.NewTracer(1 << 16)
		opts = append(opts, kernel.WithTracer(tr))
	}
	k, err := kernel.Boot(cfg, opts...)
	if err != nil {
		r.t.Fatal(err)
	}
	setEngine(k.CPU, r.p[axEngine])
	switch r.p[axObservers] {
	case tracerProfiler:
		pr := obs.NewProfiler(k.Img)
		pr.Attach(k.CPU)
		r.tracers, r.profs = append(r.tracers, tr), append(r.profs, pr)
	case multiProbe:
		r.probes = append(r.probes, newProbeSet(k.CPU))
	}
	r.kernels = append(r.kernels, k)
	return k
}

// observed appends what the rig's observers saw to out.
func (r *rig) observed(w *workload, out *fields) {
	for i, tr := range r.tracers {
		out.add(fmt.Sprintf("obs:trace of kernel %d", i), obs.TraceText(tr.Events()))
		if err := r.profs[i].CheckConservation(); err != nil {
			r.t.Errorf("%s [%v]: kernel %d: %v", w.name, r.p, i, err)
		}
	}
	for i, ps := range r.probes {
		if *ps[1] != *ps[2] || ps[0].exec != ps[1].exec {
			r.t.Errorf("%s [%v]: co-installed probes saw different streams: %+v %+v %+v", w.name, r.p, *ps[0], *ps[1], *ps[2])
		}
		out.add(fmt.Sprintf("obs:probes of kernel %d", i), *ps[1])
	}
}

// probeSet is the multi-probe observer: one digest behind a func-adapted
// exec probe and two behind struct probes, each folding its stream into
// an FNV-1a hash.
type probeSet [3]*digestProbe

type digestProbe struct{ exec, trap uint64 }

func mix(h uint64, words ...uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h = (h ^ (w >> (8 * i) & 0xff)) * 1099511628211
		}
	}
	return h
}

func (d *digestProbe) OnExec(rip uint64, in *isa.Instr, cycles uint64) {
	d.exec = mix(d.exec, rip, uint64(in.Op), cycles)
}

func (d *digestProbe) OnTrap(t *cpu.Trap, cycles uint64) {
	d.trap = mix(d.trap, uint64(t.Kind), t.Addr, t.RIP)
}

func newProbeSet(c *cpu.CPU) *probeSet {
	var ps probeSet
	for i := range ps {
		ps[i] = &digestProbe{14695981039346656037, 14695981039346656037}
	}
	c.AddProbe(cpu.ExecProbeFunc(ps[0].OnExec))
	c.AddProbe(ps[1])
	c.AddProbe(ps[2])
	return &ps
}

// state renders a CPU's architectural state.
func state(k *kernel.Kernel) string {
	s := k.CPU.SaveState()
	pending := "none"
	if s.Pending != nil {
		pending = fmt.Sprintf("%+v", *s.Pending)
	}
	s.Pending = nil
	return fmt.Sprintf("%+v pending=%s", s, pending)
}

// coverage installs a coverage sink on k and returns a function rendering
// its sorted RIPs.
func coverage(k *kernel.Kernel) func() string {
	cv := cpu.NewCoverage(k.Sym("_text"), uint64(len(k.Img.Text)))
	k.CPU.SetCoverage(cv)
	return func() string {
		rips := cv.RIPs()
		slices.Sort(rips)
		return fmt.Sprintf("%d rips %x", len(rips), sha256.Sum256([]byte(fmt.Sprint(rips))))
	}
}

// imageDigest hashes what a boot takes from its image: text, symbols, pass
// statistics and the boot-time xkeys (fmt prints maps in key order).
func imageDigest(k *kernel.Kernel) string {
	b := fmt.Append(slices.Clip(k.Img.Text), k.Img.Symbols, k.Keys, k.Build.SFIStats, k.Build.DivStats)
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// memoryDigest hashes the mapped layout and every mapped page's bytes,
// hashing each distinct frame once: the untouched pages of the physmap's
// demand-zero window all map one shared zero frame.
func memoryDigest(t *testing.T, as *mem.AddressSpace) string {
	t.Helper()
	h := sha256.New()
	sums := map[*mem.Frame][32]byte{}
	for _, r := range as.Ranges() {
		fmt.Fprintf(h, "%+v\n", r)
		for va := r.Start; va != r.End; va += mem.PageSize { // End may wrap to 0
			f, ok := as.FrameAt(va)
			if !ok {
				t.Fatalf("mapped range %+v has no page at %#x", r, va)
			}
			sum, ok := sums[f]
			if !ok {
				sum = sha256.Sum256(f.Data[:])
				sums[f] = sum
			}
			h.Write(sum[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// sysCall issues one syscall and renders its outcome.
func sysCall(k *kernel.Kernel, nr uint64, args ...uint64) (*kernel.SyscallResult, string) {
	r := k.Syscall(nr, args...)
	s := fmt.Sprintf("%s(%#x)=%#x failed=%v %v halt=%#x", kernel.SyscallName(nr), args, r.Ret, r.Failed, r.Run.Reason, r.Run.HaltRIP)
	if r.Run.Trap != nil {
		s += " trap=" + r.Run.Trap.Kind.String()
	}
	if r.Err != nil {
		s += " err=" + r.Err.Error()
	}
	return r, s
}

// table1 runs the Table 1 micro-op suite.
func table1(cfg core.Config) func(*testing.T, *rig) fields {
	return func(t *testing.T, r *rig) (f fields) {
		k := r.boot(cfg)
		cycles, err := bench.RunTable1Suite(k)
		if err != nil {
			t.Error(err)
		}
		f.add("cycles", cycles)
		f.add("state", state(k))
		return f
	}
}

// attackRun runs one of the paper's attack scenarios.
func attackRun(name string, cfg core.Config) func(*testing.T, *rig) fields {
	return func(t *testing.T, r *rig) (f fields) {
		target := r.boot(cfg)
		var res attack.Result
		switch name {
		case "DirectROP":
			res = attack.DirectROP(target, r.boot(cfg))
		case "JITROP":
			res = attack.JITROP(target)
		case "IndirectJITROP":
			res = attack.IndirectJITROP(target)
		}
		f.add("result", res)
		f.add("state", state(target))
		return f
	}
}

// ladderConfigs are the golden-boot configurations: every preset, the
// EPT and HideM baselines, KASLR, and a boot-armed fault plan.
func ladderConfigs() []core.Config {
	return append(core.Presets(),
		core.Config{XOM: core.XOMEPT, Seed: 1},
		core.Config{XOM: core.XOMHideM, Seed: 1},
		core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, KASLR: true, Seed: 3},
		core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Seed: 1, FaultPlan: &inject.Plan{
			Seed: 11, Every: 64, MaxFaults: -1, ByteFlip: 0.3, PermFlip: 0.05, KeyClobber: 0.05, SpuriousTrap: 0.05,
		}},
	)
}

func ladderName(cfg core.Config) string {
	switch {
	case cfg.KASLR:
		return cfg.Name() + "+KASLR"
	case cfg.FaultPlan != nil:
		return cfg.Name() + "+faults"
	}
	return cfg.Name()
}

// syscallLadder runs a fixed syscall sequence that writes the user buffer,
// kernel data and the kernel stack, forks and maps memory, runs a select
// loop to its exit, and ends with a code read that kR^X configurations
// stop.
func syscallLadder(t *testing.T, k *kernel.Kernel) string {
	var out []string
	call := func(nr uint64, args ...uint64) uint64 {
		r, s := sysCall(k, nr, args...)
		out = append(out, s)
		return r.Ret
	}
	call(kernel.SysNull)
	call(kernel.SysGetpid)
	if err := k.WriteUser(0, append([]byte("goldenfile"), 0)); err != nil {
		t.Error(err)
	}
	if err := k.WriteUser(512, bytes.Repeat([]byte{0x5a}, 64)); err != nil {
		t.Error(err)
	}
	fd := call(kernel.SysOpen, kernel.UserBuf)
	call(kernel.SysWrite, fd, kernel.UserBuf+512, 64)
	fd2 := call(kernel.SysOpen, kernel.UserBuf)
	call(kernel.SysRead, fd2, kernel.UserBuf+1024, 64)
	call(kernel.SysFstat, fd2, kernel.UserBuf+2048)
	call(kernel.SysClose, fd2)
	call(kernel.SysClose, fd)
	base := call(kernel.SysMmap, 3)
	call(kernel.SysMunmap, base, 3)
	call(kernel.SysFork)
	call(kernel.SysPipeWrite, kernel.UserBuf+512, 64)
	call(kernel.SysPipeRead, kernel.UserBuf+4096, 64)
	call(kernel.SysUname, kernel.UserBuf+2048)
	call(kernel.SysGetdents, kernel.UserBuf+3072, 256)
	call(kernel.SysBrk, 2)
	call(kernel.SysYield)
	call(kernel.SysSelect, 256) // a register loop the fixpoint skip fast-forwards to its exit
	call(kernel.SysLeak, k.Sym("cred"))
	call(kernel.SysLeak, k.Sym("_text")+64)
	call(kernel.SysGetpid)
	return fmt.Sprintf("%q", out)
}

// ladder runs the syscall ladder, rolls back to the boot snapshot, forks
// the rolled-back kernel (Kernel.Fork of a warm machine) and runs the
// ladder again on both.
func ladder(cfg core.Config) func(*testing.T, *rig) fields {
	return func(t *testing.T, r *rig) (f fields) {
		k := r.boot(cfg)
		if k.Cfg != cfg {
			t.Errorf("ladder/%s [%v]: the kernel's Cfg is not the caller's", ladderName(cfg), r.p)
		}
		bs, ds := k.CPU.BlockStats(), k.CPU.DecodeCacheStats()
		if bs.Dispatches != 0 || ds.Hits+ds.Misses != 0 {
			t.Errorf("ladder/%s [%v]: the kernel ran code before its first syscall", ladderName(cfg), r.p)
		}
		f.add("counters at boot", fmt.Sprintf("%+v %+v", bs, ds))
		f.add("image", imageDigest(k))
		f.add("memory at boot", memoryDigest(t, k.Space.AS))
		cov := coverage(k)
		snap := k.Snapshot()
		f.add("ladder", syscallLadder(t, k))
		if err := k.Restore(snap); err != nil {
			t.Fatal(err)
		}
		child, err := k.Fork()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*kernel.Kernel{k, child} {
			if (k.Inj != nil) != (cfg.FaultPlan != nil) {
				t.Errorf("ladder/%s [%v]: injector armed = %v with FaultPlan %v", ladderName(cfg), r.p, k.Inj != nil, cfg.FaultPlan)
			}
		}
		childCov := coverage(child)
		after, onFork := syscallLadder(t, k), syscallLadder(t, child)
		// Without a fault plan the fork must run the ladder as the kernel
		// it was forked from does; with one, each draws its own faults.
		if k.Inj == nil && (onFork != after || state(child) != state(k)) {
			t.Errorf("ladder/%s [%v]: the fork of the rolled-back kernel ran the ladder differently from the kernel\n  kernel: %s\n  fork:   %s",
				ladderName(cfg), r.p, after, onFork)
		}
		f.add("ladder after rollback", after)
		f.add("ladder on a fork", onFork)
		for i, k := range []*kernel.Kernel{k, child} {
			f.add(fmt.Sprint("state ", i), state(k))
			f.add(fmt.Sprint("coverage ", i), []func() string{cov, childCov}[i]())
			if k.Inj != nil {
				f.add(fmt.Sprint("faults ", i), k.Inj.Events)
			}
		}
		f.add("memory", memoryDigest(t, k.Space.AS))
		return f
	}
}

// selfMod rewrites text the engine has run, through every kernel surface
// that does so: a kprobe plant and removal, a livepatch through a loaded
// module and its revert, a module reload over the region of an unloaded
// one, and Snapshot/Restore.
func selfMod(t *testing.T, r *rig) (f fields) {
	k := r.boot(vanilla)
	cov := coverage(k)
	var rets []string
	getpid := func() {
		_, s := sysCall(k, kernel.SysGetpid)
		rets = append(rets, s)
	}
	getpid()
	orig, addr, err := patch.InstallProbe(k, "sys_getpid")
	if err != nil {
		t.Fatal(err)
	}
	getpid()
	if err := patch.RemoveProbe(k, addr, orig); err != nil {
		t.Fatal(err)
	}
	getpid()
	loader := module.NewLoader(k)
	mod := func(name string, ret int64) *module.Loaded {
		fn, err := ir.NewBuilder(name+"_fn").I(isa.MovRI(isa.RAX, ret), isa.Ret()).Func()
		if err != nil {
			t.Fatal(err)
		}
		m, err := loader.Load(&module.Object{Name: name, Prog: &ir.Program{Funcs: []*ir.Function{fn}}})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	revert, err := patch.Livepatch(k, "sys_getpid", mod("getpid_v2", 42).Symbols["getpid_v2_fn"])
	if err != nil {
		t.Fatal(err)
	}
	getpid()
	if err := patch.Revert(k, "sys_getpid", revert); err != nil {
		t.Fatal(err)
	}
	getpid()
	rets = append(rets, fmt.Sprint("mod1=", callAddr(t, k, mod("mod1", 111).Symbols["mod1_fn"])))
	if err := loader.Unload("mod1"); err != nil {
		t.Fatal(err)
	}
	rets = append(rets, fmt.Sprint("mod2=", callAddr(t, k, mod("mod2", 222).Symbols["mod2_fn"])))
	snap := k.Snapshot()
	getpid()
	if err := k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	getpid()
	f.add("calls", fmt.Sprintf("%q", rets))
	f.add("state", state(k))
	f.add("coverage", cov())
	return f
}

// callAddr calls a kernel address on a sentinel return address and returns
// RAX.
func callAddr(t *testing.T, k *kernel.Kernel, addr uint64) uint64 {
	c := k.CPU
	c.Mode = cpu.Kernel
	sp := c.KernelStackTop - 16
	if f := c.AS.Write(sp, cpu.StopMagic, 8); f != nil {
		t.Fatal(f)
	}
	c.Regs[isa.RSP] = sp
	c.RIP = addr
	if res := c.Run(10000); res.Reason != cpu.StopReturn {
		t.Fatalf("call to %#x: %v trap=%v", addr, res.Reason, res.Trap)
	}
	return c.Reg(isa.RAX)
}

var injectConfig = core.Config{XOM: core.XOMSFI, SFILevel: sfi.O3, Diversify: true, RAProt: diversify.RAEncrypt, Seed: 55}

// trapLog records every trap delivery with the instruction count it
// landed at: the stream a ticker's deadline must not reorder.
type trapLog struct {
	c   *cpu.CPU
	log []string
}

func (l *trapLog) OnTrap(t *cpu.Trap, cycles uint64) {
	l.log = append(l.log, fmt.Sprintf("%s rip=%#x addr=%#x instrs=%d", t.Kind, t.RIP, t.Addr, l.c.Instrs))
}

// injected attaches a fault injector firing every few instructions and
// drives a syscall sequence eight times: twice back to back, then from the
// restored boot snapshot, so restores land between Attach and Detach and
// the countdown carries across them.
func injected(every uint64) func(*testing.T, *rig) fields {
	plan := inject.Plan{
		Seed: 99 + int64(every), Every: every, MaxFaults: -1,
		ByteFlip: 0.3, PermFlip: 0.1, BndCorrupt: 0.1, KeyClobber: 0.1, SpuriousTrap: 0.1,
	}
	return func(t *testing.T, r *rig) (f fields) {
		k := r.boot(injectConfig)
		if err := k.WriteUser(0, append([]byte("testfile"), 0)); err != nil {
			t.Fatal(err)
		}
		cov := coverage(k)
		snap := k.Snapshot()
		tl := &trapLog{c: k.CPU}
		k.CPU.AddTrapProbe(tl)
		inj := inject.New(plan)
		inj.Attach(k.CPU, k.Space.AS, k.FaultTargets())
		var calls []string
		for pass := 0; pass < 8; pass++ {
			if pass >= 2 {
				if err := k.Restore(snap); err != nil {
					t.Fatal(err)
				}
			}
			for _, s := range [][]uint64{
				{kernel.SysOpen, kernel.UserBuf},
				{kernel.SysWrite, 3, kernel.UserBuf + 512, 256},
				{kernel.SysGetdents, kernel.UserBuf + 1024, 512},
				{kernel.SysUname, kernel.UserBuf + 2048},
				{kernel.SysMmap, 4},
				{kernel.SysRead, 3, kernel.UserBuf + 4096, 256},
			} {
				r, out := sysCall(k, s[0], s[1:]...)
				calls = append(calls, out)
				if r.Failed {
					break
				}
			}
		}
		inj.Detach()
		if len(inj.Events) == 0 || len(tl.log) == 0 {
			t.Errorf("every=%d: %d faults and %d traps; the plan is too thin to test", every, len(inj.Events), len(tl.log))
		}
		f.add("calls", fmt.Sprintf("%q", calls))
		f.add("faults", inj.Events)
		f.add("traps", fmt.Sprintf("%q", tl.log))
		f.add("state", state(k))
		f.add("coverage", cov())
		return f
	}
}
