package clinic

// ReferenceRun and Summarize hand the external tests the fresh-host
// reference clinic and the report reduction Suite.Run must match.
var (
	ReferenceRun = referenceRun
	Summarize    = summarize
)
