package main

import "fmt"

// The output checks. Each takes what one unit of work produced and
// returns one message per violated expectation; any message fails the
// run and counts as a failed operation.

// corpusOutput is what one corpus pass produced.
type corpusOutput struct {
	digest    string // vaccineDigest over every sample's vaccines
	vaccines  int    // vaccines the samples produced
	published int    // distinct vaccines the registry holds afterwards
}

// checkCorpus checks one corpus pass against the digest every pass of
// the run must reproduce.
func checkCorpus(got corpusOutput, want string) []string {
	var fails []string
	if got.digest != want {
		fails = append(fails, fmt.Sprintf("vaccine digest %s, want %s", got.digest, want))
	}
	if got.published != got.vaccines {
		fails = append(fails, fmt.Sprintf("registry holds %d vaccines, samples produced %d", got.published, got.vaccines))
	}
	return fails
}

// hostOutput is one host's state after a sync.
type hostOutput struct {
	host         string
	version      uint64 // the agent's applied version
	want         uint64 // the version of the server it synced with
	installed    int    // vaccines in the host's daemon
	wantVaccines int    // vaccines the server holds
	failed       int    // failed installs
	decodeErrors int
	retries      int
}

// checkHost checks that a host ended at the server's version with the
// server's whole pack installed, and that its syncs went cleanly.
func checkHost(h hostOutput) []string {
	var fails []string
	if h.version != h.want {
		fails = append(fails, fmt.Sprintf("%s at version %d, server at %d", h.host, h.version, h.want))
	}
	if h.installed != h.wantVaccines {
		fails = append(fails, fmt.Sprintf("%s installed %d vaccines, server holds %d", h.host, h.installed, h.wantVaccines))
	}
	if h.failed != 0 || h.decodeErrors != 0 || h.retries != 0 {
		fails = append(fails, fmt.Sprintf("%s: %d failed installs, %d decode errors, %d retries",
			h.host, h.failed, h.decodeErrors, h.retries))
	}
	return fails
}

// waveOutput is what one fleet-waves wave produced.
type waveOutput struct {
	wave          int
	hosts         int
	behind        int    // hosts not at the origin's version
	originETag    string // origin Delta(0).ETag
	relayETag     string // relay Delta(0).ETag
	deltas        int    // 200 pack responses the relay served in the wave
	notModified   int    // 304 pack responses
	retries       int    // agent retries in the wave
	pulled        int    // vaccines the relay mirrored
	wantPerWave   int    // vaccines published in the wave
	installedMiss int    // delta syncs that did not install the wave's vaccines
}

// checkWave checks one wave: every host converged, the relay mirrors the
// origin exactly, and each host took one delta and two 304s.
func checkWave(w waveOutput) []string {
	var fails []string
	if w.behind != 0 {
		fails = append(fails, fmt.Sprintf("wave %d: %d of %d hosts behind the origin", w.wave, w.behind, w.hosts))
	}
	if w.relayETag != w.originETag {
		fails = append(fails, fmt.Sprintf("wave %d: relay ETag %s, origin %s", w.wave, w.relayETag, w.originETag))
	}
	if w.deltas != w.hosts || w.notModified != 2*w.hosts {
		fails = append(fails, fmt.Sprintf("wave %d: %d deltas and %d 304s, want %d and %d",
			w.wave, w.deltas, w.notModified, w.hosts, 2*w.hosts))
	}
	if w.retries != 0 {
		fails = append(fails, fmt.Sprintf("wave %d: %d agent retries", w.wave, w.retries))
	}
	if w.pulled != w.wantPerWave || w.installedMiss != 0 {
		fails = append(fails, fmt.Sprintf("wave %d: relay pulled %d of %d vaccines, %d hosts missed them",
			w.wave, w.pulled, w.wantPerWave, w.installedMiss))
	}
	return fails
}
