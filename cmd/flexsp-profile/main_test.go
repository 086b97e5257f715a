package main

import (
	"strings"
	"testing"
)

// TestSensitivityBadFleet pins that an unbuildable -devices value is a
// flag error naming the flag, not a panic from deep inside the sweep.
func TestSensitivityBadFleet(t *testing.T) {
	for _, devices := range []string{"12", "-8"} {
		err := runSensitivity([]string{"-devices", devices})
		if err == nil || !strings.Contains(err.Error(), "invalid -devices") {
			t.Errorf("-devices %s: err = %v, want an invalid -devices error", devices, err)
		}
	}
}
