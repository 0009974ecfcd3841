package core

// ReplayMatchesScan lets external tests, which may import workloads
// that import this package, check an image's relocation replay against
// the reference scan.
var ReplayMatchesScan = checkReplayMatchesScan
