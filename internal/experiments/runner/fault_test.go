package runner

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/workerfault"
)

// The fault matrix the test workers install (RUNNER_TEST_FAULT here,
// FIGURES_TEST_FAULT in cmd/figures) is parsed by workerfault.Parse.

func TestParseFault(t *testing.T) {
	cases := []struct {
		in   string
		want *workerfault.Fault
	}{
		{"", nil},
		{"exit:2", &workerfault.Fault{Kind: "exit", After: 2}},
		{"wedge:1", &workerfault.Fault{Kind: "wedge", After: 1}},
		{"wedge:1:500ms", &workerfault.Fault{Kind: "wedge", After: 1, Delay: 500 * time.Millisecond}},
		{"slow:0:50ms", &workerfault.Fault{Kind: "slow", After: 0, Delay: 50 * time.Millisecond}},
		{"garbage:4", &workerfault.Fault{Kind: "garbage", After: 4}},
		{"disconnect:1", &workerfault.Fault{Kind: "disconnect", After: 1}},
	}
	for _, c := range cases {
		got, err := workerfault.Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if (got == nil) != (c.want == nil) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		if got == nil {
			continue
		}
		if got.Kind != c.want.Kind || got.After != c.want.After || got.Delay != c.want.Delay {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The String form must parse back to the same fault.
		back, err := workerfault.Parse(got.String())
		if err != nil || back.Kind != got.Kind || back.After != got.After || back.Delay != got.Delay {
			t.Errorf("Parse(%q).String() = %q did not round-trip (%+v, %v)", c.in, got.String(), back, err)
		}
	}
}

func TestParseFaultRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"3",             // bare count: kind is required
		"-2",            // bare negative count
		"exit",          // missing count
		"exit:x",        // non-integer count
		"exit:-1",       // negative count
		"bogus:1",       // unknown kind
		"wedge:1:huh",   // unparseable delay
		"wedge:1:-5s",   // negative delay
		"exit:1:1s:huh", // too many fields
	} {
		if f, err := workerfault.Parse(in); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", in, f)
		}
	}
}

// TestFaultWrapStreams runs ServePool in-process behind the fault wrappers
// and checks where each in-process-safe mode fires: garbage replaces
// response After+1, disconnect ends the session on assignment After+1
// without answering it, and slow delays every response from After on.
// (exit ends the process; TestPoolRequeuesDeadWorker drives it through a
// real subprocess.)
func TestFaultWrapStreams(t *testing.T) {
	s := testSpec(2, 2, 1)
	build := serveSpec(s)
	serve := func(t *testing.T, mode string) ([]string, time.Duration, error) {
		t.Helper()
		f, err := workerfault.Parse(mode)
		if err != nil {
			t.Fatal(err)
		}
		var out safeBuffer
		r, w := f.Wrap(strings.NewReader("SPEC runner-test\n0\n1\n2\n3\n"), &out)
		start := time.Now()
		err = ServePool(build, r, w)
		return strings.Split(strings.TrimSpace(out.String()), "\n"), time.Since(start), err
	}

	lines, _, err := serve(t, "garbage:1")
	if err != nil || len(lines) != 4 || lines[1] != "!!not json!!" || strings.HasPrefix(lines[2], "!") {
		t.Fatalf("garbage:1 wrote %q (err %v), want response 2 of 4 replaced", lines, err)
	}
	lines, _, err = serve(t, "disconnect:2")
	if err == nil || len(lines) != 2 {
		t.Fatalf("disconnect:2 wrote %q (err %v), want 2 responses then a session error", lines, err)
	}
	lines, took, err := serve(t, "slow:2:20ms")
	if err != nil || len(lines) != 4 || took < 40*time.Millisecond {
		t.Fatalf("slow:2:20ms wrote %d responses in %v (err %v), want 4 with the last two delayed", len(lines), took, err)
	}
	// A nil fault leaves the streams untouched.
	var nilFault *workerfault.Fault
	r, w := nilFault.Wrap(strings.NewReader(""), io.Discard)
	if err := ServePool(build, r, w); err != nil {
		t.Fatalf("nil fault: %v", err)
	}
}
