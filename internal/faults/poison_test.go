package faults_test

import (
	"os"
	"testing"

	"repro/internal/cloud"
)

// The chaos suites run with the wire path's pools poisoning what is released
// to them, so a buffer or operand reused too early — under drops, garbles,
// failovers and kills — shows up as a wrong answer, not as luck.
func TestMain(m *testing.M) {
	cloud.PoisonReleased = true
	os.Exit(m.Run())
}
