package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceWritesCSV: a registry alias, a governor and a series selection
// produce a CSV holding exactly the selected series.
func TestTraceWritesCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var out, errOut bytes.Buffer
	args := []string{"-sched", "fix-credit", "-gov", "paper", "-load", "exact",
		"-series", "freq_mhz,V20_absolute_pct", "-o", path}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "time_s,freq_mhz,V20_absolute_pct" {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) < 2 {
		t.Error("CSV has no rows")
	}
	if out.Len() != 0 {
		t.Errorf("wrote %d bytes to stdout with -o set", out.Len())
	}
}

// TestTraceRejectsBadFlags: every bad value exits non-zero with a message
// that says what to do instead.
func TestTraceRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"scheduler", []string{"-sched", "cfs"}, "unknown scheduler"},
		{"governor", []string{"-gov", "nope"}, "unknown governor"},
		{"load", []string{"-load", "nope"}, "unknown load"},
		{"series", []string{"-series", "nosuch"}, "unknown series"},
		{"pas with a governor", []string{"-sched", "pas", "-gov", "paper"},
			"the pas scheduler manages DVFS itself; run it without a governor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code == 0 {
				t.Fatal("exit 0")
			}
			if !strings.Contains(errOut.String(), tc.want) {
				t.Errorf("stderr %q does not contain %q", errOut.String(), tc.want)
			}
		})
	}
}
