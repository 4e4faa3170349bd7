package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"autovac/internal/core"
	"autovac/internal/determinism"
	"autovac/internal/exclusive"
	"autovac/internal/fleet"
	"autovac/internal/malware"
	"autovac/internal/vaccine"
	"autovac/internal/winenv"
)

// generator labels every registry the benchmark publishes to.
const generator = "perfbench"

// fleetConfig sizes one distribution workload.
type fleetConfig struct {
	// waves selects fleet-waves: origin → relay → persistent hosts on
	// the binary codec. Without it the workload is fleet-join: hosts
	// with fresh identities cold-join the origin over JSON.
	waves bool
	// hosts is the fleet size of fleet-waves, or the number of hosts
	// that join per pass in fleet-join. Tests use a few.
	hosts int
}

// The fleet workloads' fixed shape. The pack is analysed in set-up from
// a packSamples-sample Generator.Corpus. A fleet-waves pass runs
// wavesPerPass waves of perWave vaccines each, on an origin that starts
// from the first baseVaccines of its pack.
const (
	packSamples  = 600
	wavesPerPass = 200
	perWave      = 2
	baseVaccines = 40
)

// fleetBench drives agents against a WAL-backed origin over real
// net/http on loopback.
type fleetBench struct {
	cfg      fleetConfig
	seed     uint64
	stateDir string
	pack     []vaccine.Vaccine

	// Hosts share one transport with at most two keep-alive
	// connections. The relay's upstream connection has its own.
	hostTr   *http.Transport
	hostRT   switchRT   // hostTr, or hostTr under HTTP spans when traced
	spans    *httpSpans // the traced round tripper, when tracing
	relayCli *http.Client

	origin *loopback // the origin's server
	edge   *loopback // the relay's server (fleet-waves)
	hostLB *loopback // the server hosts talk to: origin or edge

	// State of the prepared pass.
	prepared int
	reg      *fleet.Registry
	srv      *fleet.Server // the server hosts talk to
	relay    *fleet.Relay
	agents   []*fleet.Agent
	nextHost int // fleet-join: identity of the next host
}

// The pack hosts install has a fixed class mix, so a host does the same
// install work whatever the seed: slice replays dominate an install,
// and a seeded corpus's share of them varies by seed.
const (
	packVaccines = 463 // fleet-join's pack
	packSlices   = 20  // algorithm-deterministic: installed by replaying a slice
	packPatterns = 2   // partial-static: installed as a daemon pattern
)

// packClasses is an analysed corpus's vaccines, by how hosts install them.
type packClasses struct {
	static, slices, patterns []vaccine.Vaccine
}

// take removes the first n vaccines of class c.
func take(c *[]vaccine.Vaccine, n int) []vaccine.Vaccine {
	out := (*c)[:n:n]
	*c = (*c)[n:]
	return out
}

// joinPack is fleet-join's pack: packVaccines vaccines, packSlices of
// them slice-bearing.
func (pc packClasses) joinPack() []vaccine.Vaccine {
	pack := append(take(&pc.patterns, len(pc.patterns)), take(&pc.slices, packSlices)...)
	return append(pack, take(&pc.static, packVaccines-len(pack))...)
}

// wavePack is fleet-waves' pack: baseVaccines the origin starts with,
// then perWave vaccines per wave, with the packSlices slice-bearing
// vaccines spread evenly over the waves.
func (pc packClasses) wavePack() []vaccine.Vaccine {
	np := len(pc.patterns)
	pack := append(take(&pc.patterns, np), take(&pc.static, baseVaccines-np)...)
	n := wavesPerPass * perWave
	every := n / packSlices
	for i := 0; i < n; i++ {
		if i%every == 0 && i/every < packSlices {
			pack = append(pack, take(&pc.slices, 1)...)
		} else {
			pack = append(pack, take(&pc.static, 1)...)
		}
	}
	return pack
}

// buildPack analyses a seeded Table-II corpus (triage and prefilter
// on, no clinic) and sorts its vaccines by class.
func buildPack(ctx context.Context, seed uint64, n int) (packClasses, error) {
	var pc packClasses
	samples, err := malware.NewGenerator(int64(seed)).Corpus(n)
	if err != nil {
		return pc, err
	}
	benign, err := malware.BenignCorpus()
	if err != nil {
		return pc, err
	}
	ix, err := exclusive.BuildIndex(benign, seed)
	if err != nil {
		return pc, err
	}
	results, _, err := core.New(core.Config{Seed: seed, Index: ix}).AnalyzeCorpus(ctx, samples,
		core.CorpusOptions{Workers: clients, StaticPrefilter: true, StaticTriage: true})
	if err != nil {
		return pc, err
	}
	for _, r := range results {
		for _, v := range r.Vaccines {
			switch v.Class {
			case determinism.AlgorithmDeterministic:
				pc.slices = append(pc.slices, v)
			case determinism.PartialStatic:
				pc.patterns = append(pc.patterns, v)
			default:
				pc.static = append(pc.static, v)
			}
		}
	}
	pc.patterns = pc.patterns[:min(len(pc.patterns), packPatterns)]
	if len(pc.slices) < packSlices || len(pc.static) < packVaccines {
		return pc, fmt.Errorf("a %d-sample corpus gave %d slice-bearing and %d static vaccines, need %d and %d",
			n, len(pc.slices), len(pc.static), packSlices, packVaccines)
	}
	return pc, nil
}

func setupFleet(ctx context.Context, cfg fleetConfig, seed uint64, stateDir string) (*fleetBench, error) {
	pc, err := buildPack(ctx, seed, packSamples)
	if err != nil {
		return nil, err
	}
	pack := pc.joinPack()
	if cfg.waves {
		pack = pc.wavePack()
	}
	b := &fleetBench{cfg: cfg, seed: seed, stateDir: stateDir, pack: pack, prepared: -1}
	b.hostTr = newTransport(clients)
	b.hostRT.set(b.hostTr)
	b.relayCli = &http.Client{Transport: newTransport(1)}
	if b.origin, err = startLoopback(); err != nil {
		return nil, err
	}
	b.hostLB = b.origin
	if cfg.waves {
		if b.edge, err = startLoopback(); err != nil {
			b.close()
			return nil, err
		}
		b.hostLB = b.edge
	}
	if err := b.prepare(ctx, 0); err != nil {
		b.close()
		return nil, err
	}
	if !cfg.waves {
		// Warm-up: one host joins, which also fills the encode cache
		// every later join is served from.
		if _, _, err := b.join(ctx, nil, -1); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up join: %w", err)
		}
	}
	return b, nil
}

// identity is host i's machine identity: distinct per host, so
// algorithm-deterministic vaccines replay to per-host identifiers.
func identity(seed uint64, i int) winenv.HostIdentity {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%d", seed, i)
	v := h.Sum32()
	return winenv.HostIdentity{
		ComputerName: hostName(i),
		UserName:     fmt.Sprintf("user%02d", v%97),
		VolumeSerial: v,
		IPAddress:    fmt.Sprintf("10.%d.%d.%d", byte(v>>16), byte(v>>8), byte(v)|1),
	}
}

// hostName has a fixed width, so every host's check-in has the same
// size and wire bytes per host repeat exactly.
func hostName(i int) string {
	if i < 0 {
		return "HOST-WARMUP"
	}
	return fmt.Sprintf("HOST-%06d", i)
}

// prepare builds pass k's origin registry (and, for fleet-waves, its
// relay and cold-joined hosts). Nothing here is timed.
func (b *fleetBench) prepare(ctx context.Context, k int) error {
	if b.prepared == k || (b.prepared >= 0 && !b.cfg.waves) {
		// fleet-join publishes nothing, so one origin serves every pass.
		return nil
	}
	if b.reg != nil {
		if err := b.reg.Close(); err != nil {
			return err
		}
	}
	dir := filepath.Join(b.stateDir, fmt.Sprintf("origin-%d", k))
	reg, err := fleet.OpenRegistry(dir, 0)
	if err != nil {
		return err
	}
	reg.SetGenerator(generator)
	b.reg, b.prepared = reg, k
	base := b.pack
	if b.cfg.waves {
		base = b.pack[:baseVaccines]
	}
	if _, stored, err := reg.Publish(base...); err != nil || stored != len(base) {
		return fmt.Errorf("publishing the base pack: stored %d of %d: %v", stored, len(base), err)
	}
	origin := fleet.NewServer(reg)
	b.origin.set(origin.Handler())
	if !b.cfg.waves {
		b.srv = origin
		return nil
	}

	relay, err := fleet.NewRelay(fleet.RelayConfig{Upstream: b.origin.url, Client: b.relayCli, Seed: b.seed})
	if err != nil {
		return err
	}
	if _, err := relay.SyncOnce(ctx); err != nil {
		return fmt.Errorf("relay cold sync: %w", err)
	}
	b.relay, b.srv = relay, relay.Server()
	b.edge.set(relay.Handler())
	b.agents = make([]*fleet.Agent, b.cfg.hosts)
	client := &http.Client{Transport: &b.hostRT}
	for i := range b.agents {
		b.agents[i] = fleet.NewAgent(fleet.AgentConfig{
			BaseURL: b.edge.url, Host: hostName(i), Env: winenv.New(identity(b.seed, i)),
			Seed: b.seed, Client: client, Binary: true,
		})
	}
	errs := make([]error, len(b.agents))
	closedLoop(len(b.agents), func(i int) {
		_, errs[i] = b.agents[i].SyncOnce(ctx)
	})
	for i, ag := range b.agents {
		if errs[i] != nil {
			return fmt.Errorf("cold join: %w", errs[i])
		}
		st := ag.Stats()
		if f := checkHost(hostOutput{
			host: ag.Host(), version: ag.Version(), want: reg.Latest(),
			installed: ag.Daemon().VaccineCount(), wantVaccines: len(base),
			failed: st.Failed, decodeErrors: st.DecodeErrors, retries: st.Retries,
		}); len(f) > 0 {
			return fmt.Errorf("cold join: %s", f[0])
		}
	}
	return nil
}

// trace points the hosts' round tripper and the server they talk to at
// t: HTTP and server spans when t is non-nil, the bare transport and
// handler otherwise.
func (b *fleetBench) trace(t *tracer) {
	h := b.srv.Handler()
	if t == nil {
		b.spans = nil
		b.hostRT.set(b.hostTr)
		b.hostLB.set(h)
		return
	}
	b.hostLB.set(serverSpans(t, h))
	b.spans = &httpSpans{
		next: b.hostTr, t: t,
		names:    map[string]string{fleet.PathPacks: "http.packs", fleet.PathCheckin: "http.checkin"},
		captured: make(map[int32][]capturedBody),
	}
	b.hostRT.set(b.spans)
}

// sync runs one agent sync cycle under the span fleet.agent.sync and
// returns the span's id (0 when untraced).
func (b *fleetBench) sync(ctx context.Context, t *tracer, ag *fleet.Agent, req int64) (int, int32, error) {
	sp := t.start("fleet.agent.sync", 0, req)
	n, err := ag.SyncOnce(withParent(ctx, sp.id(), req))
	sp.close()
	return n, sp.id(), err
}

// redecode decodes once more each pack body the agent read in the
// traced sync span id, as the span fleet.codec.decode under it. Callers
// run it after the operation's latency is taken and, on fleet-waves,
// after the wave's span closes, so it adds to no latency and to no span
// but its own.
func (b *fleetBench) redecode(t *tracer, id int32, req int64) error {
	if t == nil {
		return nil
	}
	for _, cb := range b.spans.take(id) {
		sp := t.start("fleet.codec.decode", id, req)
		var err error
		if cb.contentType == fleet.ContentTypeDelta {
			_, err = fleet.DecodeDeltaBinary(cb.body)
		} else {
			err = json.NewDecoder(bytes.NewReader(cb.body)).Decode(new(fleet.DeltaResponse))
		}
		sp.close()
		t.addCount("fleet.codec.decode.bytes", int64(len(cb.body)))
		if err != nil {
			return fmt.Errorf("decode re-run: %w", err)
		}
	}
	return nil
}

// join cold-joins one new host (since=0) and checks it. Host -1 is the
// set-up warm-up host. It returns the failed checks and the host's sync
// span id.
func (b *fleetBench) join(ctx context.Context, t *tracer, i int) ([]string, int32, error) {
	ag := fleet.NewAgent(fleet.AgentConfig{
		BaseURL: b.origin.url, Host: hostName(i), Env: winenv.New(identity(b.seed, i)),
		Seed: b.seed, Client: &http.Client{Transport: &b.hostRT},
	})
	n, id, err := b.sync(ctx, t, ag, int64(i))
	if err != nil {
		return nil, id, err
	}
	st := ag.Stats()
	if t != nil {
		t.addCount("deploy.install.vaccines", int64(n))
		t.addCount("deploy.install.slice_replays", int64(sliceCount(b.pack)))
		t.addCount("fleet.agent.retries", int64(st.Retries))
		t.addCount("fleet.agent.decode_errors", int64(st.DecodeErrors))
	}
	return checkHost(hostOutput{
		host: ag.Host(), version: ag.Version(), want: b.reg.Latest(),
		installed: ag.Daemon().VaccineCount(), wantVaccines: len(b.pack),
		failed: st.Failed, decodeErrors: st.DecodeErrors, retries: st.Retries,
	}), id, nil
}

// sliceCount counts the vaccines a host installs by replaying a slice.
func sliceCount(vs []vaccine.Vaccine) int {
	n := 0
	for i := range vs {
		if vs[i].Class == determinism.AlgorithmDeterministic {
			n++
		}
	}
	return n
}

func (b *fleetBench) pass(ctx context.Context, k int, t *tracer) (*passResult, error) {
	if b.cfg.waves && b.prepared != k {
		return nil, fmt.Errorf("pass %d was not prepared", k)
	}
	b.trace(t)
	before := b.srv.MetricsSnapshot()
	var pr *passResult
	var err error
	if b.cfg.waves {
		pr, err = b.wavePass(ctx, t)
	} else {
		pr, err = b.joinPass(ctx, t)
	}
	if err != nil {
		return nil, err
	}
	after := b.srv.MetricsSnapshot()
	t.addCount("fleet.cache.hits", int64(after.EncodeCacheHits-before.EncodeCacheHits))
	t.addCount("fleet.cache.deltas", int64(after.DeltasServed-before.DeltasServed))
	return pr, nil
}

// joinPass cold-joins cfg.hosts new hosts; each is dropped once checked.
func (b *fleetBench) joinPass(ctx context.Context, t *tracer) (*passResult, error) {
	n := b.cfg.hosts
	first := b.nextHost
	b.nextHost += n
	lat := make([]time.Duration, n)
	fails := make([][]string, n)
	wire := b.hostLB.wire.load()
	start := time.Now()
	closedLoop(n, func(j int) {
		t0 := time.Now()
		f, id, err := b.join(ctx, t, first+j)
		lat[j] = time.Since(t0)
		if derr := b.redecode(t, id, int64(first+j)); err == nil {
			err = derr
		}
		if err != nil {
			f = append(f, err.Error())
		}
		fails[j] = f
	})
	pr := &passResult{timed: time.Since(start), lat: lat, attempted: n,
		hosts: n, wireBytes: b.hostLB.wire.load() - wire}
	for _, f := range fails {
		pr.fail(f...)
	}
	return pr, nil
}

// wavePass runs wavesPerPass waves against the prepared fleet. Each
// wave publishes perWave vaccines at the origin, pulls the relay once
// (its upstream has moved, so the pull never parks), lets every host
// sync the delta, then has every host poll twice more with nothing new.
// A wave's duration runs from the publish to the last host's delta
// sync. The checks after each wave are not timed.
func (b *fleetBench) wavePass(ctx context.Context, t *tracer) (*passResult, error) {
	hosts := len(b.agents)
	pr := &passResult{hosts: hosts}
	wire := b.hostLB.wire.load()
	walDir := filepath.Join(b.stateDir, fmt.Sprintf("origin-%d", b.prepared))
	walBefore, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, hosts)
	installed := make([]int, hosts)
	ids := make([]int32, hosts)
	errs := make([]error, hosts)
	failErrs := func() {
		for j := range errs {
			if errs[j] != nil {
				pr.fail(errs[j].Error())
			}
		}
	}
	req := func(w, j int) int64 { return int64(w)*int64(hosts) + int64(j) }
	round := func(w int) {
		closedLoop(hosts, func(j int) {
			t0 := time.Now()
			installed[j], ids[j], errs[j] = b.sync(ctx, t, b.agents[j], req(w, j))
			lat[j] = time.Since(t0)
		})
		pr.lat = append(pr.lat, lat...)
		failErrs()
	}
	for w := 0; w < wavesPerPass; w++ {
		vs := b.pack[baseVaccines+w*perWave : baseVaccines+(w+1)*perWave]
		before := b.srv.MetricsSnapshot()
		retries := b.agentRetries()

		t0 := time.Now()
		wave := t.start("fleet.wave", 0, int64(w))
		sp := t.start("fleet.publish", wave.id(), int64(w))
		_, stored, perr := b.reg.Publish(vs...)
		sp.close()
		relayBytes := b.origin.wire.load()
		sp = t.start("fleet.relay.pull", wave.id(), int64(w))
		pulled, rerr := b.relay.SyncOnce(ctx)
		sp.close()
		t.addCount("fleet.relay.pull.bytes", b.origin.wire.load()-relayBytes)
		round(w)
		pr.waves = append(pr.waves, time.Since(t0))
		wave.close()
		missed := 0
		for j := range installed {
			if installed[j] != perWave {
				missed++
			}
		}
		if t != nil {
			closedLoop(hosts, func(j int) { errs[j] = b.redecode(t, ids[j], req(w, j)) })
			failErrs()
		}
		t.addCount("deploy.install.vaccines", int64(perWave*(hosts-missed)))
		t.addCount("deploy.install.slice_replays", int64(sliceCount(vs)*(hosts-missed)))
		round(w)
		round(w)
		pr.timed += time.Since(t0)

		pr.attempted += 3*hosts + 2
		t.addCount("fleet.publish.vaccines", int64(stored))
		t.addCount("fleet.relay.pull.vaccines", int64(pulled))
		if perr != nil || stored != perWave {
			pr.fail(fmt.Sprintf("wave %d: publish stored %d of %d: %v", w, stored, perWave, perr))
		}
		if rerr != nil {
			t.addCount("fleet.relay.pull.errors", 1)
			pr.fail(fmt.Sprintf("wave %d: relay pull: %v", w, rerr))
		}
		after := b.srv.MetricsSnapshot()
		behind := 0
		for _, ag := range b.agents {
			if ag.Version() != b.reg.Latest() {
				behind++
			}
		}
		pr.fail(checkWave(waveOutput{
			wave: w, hosts: hosts, behind: behind,
			originETag: b.reg.Delta(0).ETag, relayETag: b.relay.Registry().Delta(0).ETag,
			deltas:      int(after.DeltasServed - before.DeltasServed),
			notModified: int(after.NotModified - before.NotModified),
			retries:     b.agentRetries() - retries,
			pulled:      pulled, wantPerWave: perWave, installedMiss: missed,
		})...)
	}
	pr.wireBytes = b.hostLB.wire.load() - wire
	for _, ag := range b.agents {
		st := ag.Stats()
		t.addCount("fleet.agent.retries", int64(st.Retries))
		t.addCount("fleet.agent.decode_errors", int64(st.DecodeErrors))
	}
	walAfter, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	t.addCount("fleet.wal.bytes", walAfter-walBefore)
	return pr, nil
}

func (b *fleetBench) agentRetries() int {
	n := 0
	for _, ag := range b.agents {
		n += ag.Stats().Retries
	}
	return n
}

func (b *fleetBench) close() error {
	var errs []error
	for _, lb := range []*loopback{b.edge, b.origin} {
		if lb != nil {
			errs = append(errs, lb.close())
		}
	}
	b.hostTr.CloseIdleConnections()
	b.relayCli.CloseIdleConnections()
	if b.reg != nil {
		errs = append(errs, b.reg.Close())
	}
	errs = append(errs, os.RemoveAll(b.stateDir))
	return errors.Join(errs...)
}
