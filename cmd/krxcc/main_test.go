package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunCombinesModes: every selected mode runs, in the fixed order list,
// Figure 2, Figure 3, -fn, and each one prints exactly what it prints
// alone.
func TestRunCombinesModes(t *testing.T) {
	base := options{mode: "sfi", level: 3, raprot: "none", seed: 1, divers: true}
	alone := func(set func(*options)) string {
		o := base
		set(&o)
		var b bytes.Buffer
		if err := run(&b, o); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			t.Fatalf("mode %+v printed nothing", o)
		}
		return b.String()
	}
	list := alone(func(o *options) { o.list = true })
	fig2 := alone(func(o *options) { o.fig2 = true })
	fig3 := alone(func(o *options) { o.fig3 = true })
	fn := alone(func(o *options) { o.fn = "sys_null" })
	if !strings.HasPrefix(fn, "// sys_null under ") {
		t.Fatalf("-fn output starts %q", fn[:min(len(fn), 40)])
	}

	for _, c := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"figure2+figure3", func(o *options) { o.fig2, o.fig3 = true, true }, fig2 + fig3},
		{"list+fn", func(o *options) { o.list, o.fn = true, "sys_null" }, list + fn},
		{"all", func(o *options) { o.list, o.fig2, o.fig3, o.fn = true, true, true, "sys_null" }, list + fig2 + fig3 + fn},
	} {
		if got := alone(c.set); got != c.want {
			t.Errorf("%s: combined output is not the single-mode outputs in order (%d bytes, want %d)",
				c.name, len(got), len(c.want))
		}
	}
}

// TestRunReportsFnErrorsAfterEarlierModes: a bad -fn still fails the run,
// after the modes before it have printed.
func TestRunReportsFnErrorsAfterEarlierModes(t *testing.T) {
	var b bytes.Buffer
	err := run(&b, options{fig3: true, fn: "no_such_function", mode: "sfi", level: 3, raprot: "none", seed: 1})
	if err == nil || !strings.Contains(err.Error(), "no_such_function") {
		t.Fatalf("run = %v, want the unknown-function error", err)
	}
	if b.Len() == 0 {
		t.Fatal("Figure 3 was not printed before the -fn error")
	}
}
