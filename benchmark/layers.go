package main

import "strings"

// attackScenarios are the ladder's scenarios, in span-name form.
var attackScenarios = []string{
	"direct_rop", "jit_rop", "indirect_jit_rop", "substitution",
	"race_hazard", "ret2usr", "gadget_survival",
}

// emulationSpans are the spans inside which emulated code runs; cpu.mips
// divides retired instructions by their self time.
var emulationSpans = map[string]bool{
	"kernel.syscall": true, "bench.table1_pass": true, "bench.table2_txn": true,
}

// layerMetrics derives the per-layer metrics of a traced run from its spans
// and counters. A metric of a layer the workload does not call reads 0.
func layerMetrics(spans []spanStat, c *counters) map[string]metric {
	durs := map[string][]float64{}            // span durations by name, seconds
	self := map[string]float64{}              // summed self time by name, seconds
	perLadder := map[string]map[int]float64{} // attack span name → ladder → self time
	var total, emulate float64
	for _, s := range spans {
		d, st := (s.end - s.start).Seconds(), s.self.Seconds()
		durs[s.name] = append(durs[s.name], d)
		self[s.name] += st
		total += st
		if emulationSpans[s.name] || strings.HasPrefix(s.name, "attack.") && s.name != "attack.ladder" {
			emulate += st
		}
		if strings.HasPrefix(s.name, "attack.") {
			if perLadder[s.name] == nil {
				perLadder[s.name] = map[int]float64{}
			}
			perLadder[s.name][s.unit] += st
		}
	}
	share := func(names ...string) float64 {
		if total == 0 {
			return 0
		}
		var sum float64
		for _, n := range names {
			sum += self[n]
		}
		return sum / total
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	p := func(name string, q, scale float64) float64 { return quantile(durs[name], q) * scale }
	m := map[string]metric{
		"fuzz.pick_us_p50":       {p("fuzz.pick", 0.5, 1e6), "us"},
		"fuzz.fold_us_p50":       {p("fuzz.fold", 0.5, 1e6), "us"},
		"fuzz.fold_share":        {share("fuzz.fold"), "ratio"},
		"fuzz.minimize_syscalls": {float64(c.minimizeSyscalls), "count"},

		"kernel.restore_us_p50":  {p("kernel.restore", 0.5, 1e6), "us"},
		"kernel.restore_us_p999": {p("kernel.restore", 0.999, 1e6), "us"},
		"kernel.syscall_us_p50":  {p("kernel.syscall", 0.5, 1e6), "us"},
		"kernel.syscall_us_p999": {p("kernel.syscall", 0.999, 1e6), "us"},
		"kernel.syscalls":        {float64(c.syscalls), "count"},
		"kernel.boot_ms_p50":     {p("kernel.boot", 0.5, 1e3), "ms"},
		"kernel.boots":           {float64(len(durs["kernel.boot"])), "count"},
		"kernel.boot_share":      {share("kernel.boot"), "ratio"},

		"audit.audit_us_p50": {p("audit.audit", 0.5, 1e6), "us"},
		"audit.calls":        {float64(c.audits), "count"},
		"audit.share":        {share("audit.audit"), "ratio"},

		"inject.attach_us_p50": {p("inject.attach", 0.5, 1e6), "us"},
		"inject.faults":        {float64(c.faults), "count"},

		"cpu.instrs":               {float64(c.instrs), "count"},
		"cpu.block_instr_share":    {ratio(c.blockInstrs, c.instrs), "ratio"},
		"cpu.blocks_formed":        {float64(c.blocksFormed), "count"},
		"cpu.blocks_compiled":      {float64(c.blocksCompiled), "count"},
		"cpu.block_aborts":         {float64(c.blockAborts), "count"},
		"cpu.block_cold":           {float64(c.blockCold), "count"},
		"cpu.dcache_hit_ratio":     {ratio(c.dcHits, c.dcHits+c.dcMisses), "ratio"},
		"cpu.dcache_invalidations": {float64(c.dcInvalidations), "count"},

		"mem.dtlb_hit_ratio": {ratio(c.tlbHits, c.tlbHits+c.tlbMisses), "ratio"},

		"bench.table1_pass_ms_p50": {p("bench.table1_pass", 0.5, 1e3), "ms"},
		"bench.table2_txn_ms_p50":  {p("bench.table2_txn", 0.5, 1e3), "ms"},
		"bench.emulate_share":      {share("bench.table1_pass", "bench.table2_txn"), "ratio"},

		"store.builds": {float64(c.builds), "count"},
		"store.hits":   {float64(c.hits), "count"},
	}
	mips := 0.0
	if emulate > 0 {
		mips = float64(c.instrs) / emulate / 1e6
	}
	m["cpu.mips"] = metric{mips, "MIPS"}
	for _, a := range attackScenarios {
		var xs []float64
		for _, v := range perLadder["attack."+a] {
			xs = append(xs, v)
		}
		m["attack."+a+"_ms"] = metric{median(xs) * 1e3, "ms"}
	}
	overhead := 0.0
	if c.untraced > 0 {
		overhead = 100 * (c.traced.Seconds()/c.untraced.Seconds() - 1)
	}
	m["trace_overhead_pct"] = metric{overhead, "%"}
	return m
}
