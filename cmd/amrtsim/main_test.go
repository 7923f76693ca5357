package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the amrtsim command: with
// AMRTSIM_ARGS set, the child runs main on those arguments and exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AMRTSIM_ARGS"); ok {
		os.Args = append([]string{"amrtsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInputReportsError checks that a configuration error is
// reported as a one-line error with exit status 1, not a panic, both
// for a single run and for -compare.
func TestBadInputReportsError(t *testing.T) {
	for _, args := range []string{
		"-workload Nope -flows 10",
		"-compare -workload Nope -flows 10",
		"-compare -faults link=nosuch0->nowhere0,down=1ms,up=2ms -flows 10",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "AMRTSIM_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "amrtsim: ") || strings.Contains(msg, "panic") || strings.Contains(msg, "goroutine") {
			t.Errorf("%s: stderr = %q, want an amrtsim: error line and no panic", args, msg)
		}
		if strings.Contains(args, "-faults") && !strings.Contains(msg, "docs/FAULTS.md") {
			t.Errorf("%s: stderr = %q, want the docs/FAULTS.md hint", args, msg)
		}
	}
}
