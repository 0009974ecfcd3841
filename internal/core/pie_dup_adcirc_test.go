package core_test

import (
	"testing"

	"provirt/internal/core"
	"provirt/internal/workloads/adcirc"
)

// TestReplayMatchesScanADCIRC: on the ADCIRC image that dominates
// Table 2, the relocation replay reproduces the per-word scan exactly.
func TestReplayMatchesScanADCIRC(t *testing.T) {
	core.ReplayMatchesScan(t, adcirc.Image())
}
