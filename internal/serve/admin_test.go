package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"odds/internal/detector"
	"odds/internal/stream"
)

// clusterConfig is a cluster node's configuration over a 4-shard global
// space.
func clusterConfig(seed int64) Config {
	return Config{
		Shards:     4,
		Pipeline:   testPipelineConfig(DetectDistance, 1, 120, seed),
		QueueDepth: 32,
		Cluster:    true,
	}
}

// newClusterNode starts a cluster node under cfg and installs fresh
// pipelines for the given shards, as primaries and as followers, the way
// a router's op=create does. The node closes when the test ends.
func newClusterNode(t *testing.T, cfg Config, primaries, replicas []int) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for _, id := range primaries {
		if err := srv.InstallShard(id, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range replicas {
		if err := srv.InstallShard(id, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// hosted returns the per-shard stats of the shards srv hosts.
func hosted(t *testing.T, srv *Server) []ShardStats {
	t.Helper()
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.PerShard
}

// sensorOnShard finds a sensor name routed to the wanted global shard.
func sensorOnShard(t *testing.T, shard, shards int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("sensor-%03d", i)
		if ShardOf(name, shards) == shard {
			return name
		}
	}
	t.Fatalf("no sensor found for shard %d", shard)
	return ""
}

// shardFile cuts shard id's one-shard snapshot file from srv through
// POST /admin/shard?op=snapshot, as a router's drain does.
func shardFile(t *testing.T, srv *Server, id int) []byte {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	frame, err := Client{HTTP: ts.Client(), Base: ts.URL}.Shard(ShardSnapshot, id, ShardArgs{})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postInstall posts body as op=install of shard id and returns the status
// and the reply.
func postInstall(t *testing.T, srv *Server, id int, body []byte) (int, string) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, reply := postRaw(t, fmt.Sprintf("%s/admin/shard?op=install&id=%d", ts.URL, id), "application/octet-stream", body)
	return resp.StatusCode, string(reply)
}

// TestMigrationConfigMismatchFailClosed is the fail-closed contract for
// shipped snapshots: a shard snapshot cut on a node with a different
// configuration is refused at install — with no partial restore, the
// target never hosts the shard.
func TestMigrationConfigMismatchFailClosed(t *testing.T) {
	src := newClusterNode(t, clusterConfig(42), []int{0}, nil)

	// Ingest a little state so the snapshot is nontrivial.
	sensor := sensorOnShard(t, 0, 4)
	for i := 0; i < 50; i++ {
		if _, rej, err := src.Ingest([]Reading{{Sensor: sensor, Value: []float64{float64(i) / 50}}}); err != nil || rej != 0 {
			t.Fatalf("ingest: rejected %d err %v", rej, err)
		}
	}
	frame := shardFile(t, src, 0)

	// The target runs a different detector configuration.
	badCfg := clusterConfig(42)
	badCfg.Pipeline.Distance.Radius *= 2
	bad := newClusterNode(t, badCfg, nil, nil)
	if code, _ := postInstall(t, bad, 0, frame); code != http.StatusConflict {
		t.Fatalf("mismatched install: status %d, want 409", code)
	}
	// Fail-closed means no partial restore: the shard must not exist.
	if infos := hosted(t, bad); len(infos) != 0 {
		t.Fatalf("target hosts %+v after refused install", infos)
	}

	// A matching node accepts the same frame and lands at the same seq.
	good := newClusterNode(t, clusterConfig(42), nil, nil)
	if code, _ := postInstall(t, good, 0, frame); code != http.StatusOK {
		t.Fatalf("matching install: status %d, want 200", code)
	}
	if infos := hosted(t, good); len(infos) != 1 || infos[0].Arrivals != 50 {
		t.Fatalf("restored shard state %+v, want arrivals 50", infos)
	}
}

// TestInstallRefusals: op=install admits a one-shard snapshot file for the
// shard it names and nothing else, and refuses before any state is
// touched — the target hosts nothing afterwards.
func TestInstallRefusals(t *testing.T) {
	cfg := clusterConfig(42)
	cfg.MaxBodyBytes = 64 << 10
	src := newClusterNode(t, cfg, []int{2, 3}, nil)
	for _, id := range []int{2, 3} {
		if _, rej, err := src.Ingest([]Reading{{Sensor: sensorOnShard(t, id, 4), Value: []float64{0.5}}}); err != nil || rej != 0 {
			t.Fatalf("ingest: rejected %d err %v", rej, err)
		}
	}
	blob2, err := src.SnapshotShard(2, false)
	if err != nil {
		t.Fatal(err)
	}
	blob3, err := src.SnapshotShard(3, false)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg.Pipeline
	other.Distance.Radius *= 2

	// Every row is posted as op=install&id=2.
	for _, tc := range []struct {
		name string
		body []byte
		want int
		why  string // in the reply
	}{
		{"frame for shard 3", shardFile(t, src, 3), http.StatusBadRequest, "carries shard 3"},
		{"two non-empty slots", encodeFile(4, cfg.Pipeline, [][]byte{nil, nil, blob2, blob3}), http.StatusBadRequest, "carries shard 3"},
		{"empty slot id", encodeFile(4, cfg.Pipeline, make([][]byte, 4)), http.StatusBadRequest, "no state for shard 2"},
		{"different fingerprint", encodeFile(4, other, [][]byte{nil, nil, blob2, nil}), http.StatusConflict, "fingerprint mismatch"},
		{"different shard count", encodeFile(4, cfg.Pipeline, [][]byte{nil, nil, blob2, nil, nil}), http.StatusBadRequest, "shard count mismatch"},
		{"body over MaxBodyBytes", make([]byte, cfg.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, "too large"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			target := newClusterNode(t, cfg, nil, nil)
			if code, reply := postInstall(t, target, 2, tc.body); code != tc.want || !strings.Contains(reply, tc.why) {
				t.Fatalf("status %d %s, want %d %q", code, reply, tc.want, tc.why)
			}
			if infos := hosted(t, target); len(infos) != 0 {
				t.Fatalf("target hosts %+v after a refused install", infos)
			}
		})
	}
}

// TestSealDrainCapturesACKed pins the migration drain invariant: after
// seal+snapshot through the mailbox, the blob contains exactly the
// readings that were ACKed, and the sealed shard refuses new ingest as
// retryable rejections (nothing applied).
func TestSealDrainCapturesACKed(t *testing.T) {
	srv := newClusterNode(t, clusterConfig(7), []int{0}, nil)
	sensor := sensorOnShard(t, 0, 4)
	for i := 0; i < 30; i++ {
		if _, rej, err := srv.Ingest([]Reading{{Sensor: sensor, Value: []float64{0.3}}}); err != nil || rej != 0 {
			t.Fatalf("ingest %d: rejected %d err %v", i, rej, err)
		}
	}
	blob, err := srv.SnapshotShard(0, true) // seal + drain
	if err != nil {
		t.Fatal(err)
	}
	pcfg := srv.cfg.Pipeline
	pcfg.Seed = shardSeed(pcfg.Seed, 0)
	pl, err := RestorePipeline(pcfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Seq() != 30 {
		t.Fatalf("snapshot at seq %d, want 30 (exactly the ACKed readings)", pl.Seq())
	}

	// Sealed: ingest refused, not applied.
	results, rej, err := srv.Ingest([]Reading{{Sensor: sensor, Value: []float64{0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	if rej != 1 || results[0].Accepted {
		t.Fatalf("sealed shard accepted ingest: rejected %d results %+v", rej, results)
	}
	if infos := hosted(t, srv); infos[0].Arrivals != 30 || !infos[0].Sealed {
		t.Fatalf("sealed shard state %+v", infos[0])
	}

	// Unseal: serving resumes where the seal left off.
	if err := srv.UnsealShard(0); err != nil {
		t.Fatal(err)
	}
	results, rej, err = srv.Ingest([]Reading{{Sensor: sensor, Value: []float64{0.3}}})
	if err != nil || rej != 0 || !results[0].Accepted || results[0].Seq != 31 {
		t.Fatalf("post-unseal ingest: rej %d err %v results %+v", rej, err, results)
	}
}

// TestReplicateContiguity pins the fail-closed replication contract: a
// follower applies only the exact next batch; gaps and duplicates are
// refused 409 and leave the replica frozen at a consistent prefix.
func TestReplicateContiguity(t *testing.T) {
	follower := newClusterNode(t, clusterConfig(9), nil, []int{1})
	ts := httptest.NewServer(follower.Handler())
	defer ts.Close()

	sensor := sensorOnShard(t, 1, 4)
	fp := follower.wireFP
	post := func(fromSeq uint64, vals ...float64) int {
		readings := make([]Reading, len(vals))
		for i, v := range vals {
			readings[i] = Reading{Sensor: sensor, Value: []float64{v}}
		}
		frame := appendReplFrame(nil, 1, fromSeq, readings, make([]Verdict, len(readings)), 1, fp)
		resp, err := http.Post(ts.URL+"/replicate", "application/x-odds-repl", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(1, 0.1, 0.2); code != http.StatusOK {
		t.Fatalf("first batch: status %d", code)
	}
	if code := post(5, 0.3); code != http.StatusConflict {
		t.Fatalf("gapped batch: status %d, want 409", code)
	}
	if code := post(2, 0.9); code != http.StatusConflict {
		t.Fatalf("duplicate batch: status %d, want 409", code)
	}
	if code := post(3, 0.3); code != http.StatusOK {
		t.Fatalf("contiguous batch: status %d", code)
	}
	infos := hosted(t, follower)
	if infos[0].Arrivals != 3 || infos[0].Role != "replica" {
		t.Fatalf("follower state %+v, want arrivals 3", infos[0])
	}

	// Replicas refuse client ingest (wrong-node rejection, not applied).
	_, rej, err := follower.Ingest([]Reading{{Sensor: sensor, Value: []float64{0.5}}})
	if err != nil || rej != 1 {
		t.Fatalf("replica accepted client ingest: rej %d err %v", rej, err)
	}

	// Promote: the replica becomes a serving primary at its prefix.
	if err := follower.PromoteShard(1); err != nil {
		t.Fatal(err)
	}
	results, rej, err := follower.Ingest([]Reading{{Sensor: sensor, Value: []float64{0.5}}})
	if err != nil || rej != 0 || results[0].Seq != 4 {
		t.Fatalf("promoted ingest: rej %d err %v results %+v", rej, err, results)
	}
	// Once primary, replication batches are refused.
	if code := post(5, 0.6); code != http.StatusConflict {
		t.Fatalf("replicate to primary: status %d, want 409", code)
	}
}

// TestReplicateOversizedBody: a /replicate body past MaxBodyBytes answers
// 413, as /ingest does — not 400, which reads as a malformed frame.
func TestReplicateOversizedBody(t *testing.T) {
	cfg := clusterConfig(9)
	cfg.MaxBodyBytes = 4096
	follower := newClusterNode(t, cfg, nil, []int{1})
	ts := httptest.NewServer(follower.Handler())
	defer ts.Close()
	resp, body := postRaw(t, ts.URL+"/replicate", "application/x-odds-repl", make([]byte, cfg.MaxBodyBytes+1))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
}

// replicatedPair wires a real primary→follower chain over HTTP for shard 2
// under pcfg and streams n readings of an abruptly shifting stream through
// the primary in batches, sensors cycled per reading. After every batch it
// calls between (when set), waits for the follower to apply the batch, and
// requires the chain's contract: both sides snapshot to identical blobs.
func replicatedPair(t *testing.T, pcfg PipelineConfig, sensors []string, n int, between func(primary *Server, v []float64)) (primary, follower *Server) {
	t.Helper()
	cfg := clusterConfig(11)
	cfg.Pipeline = pcfg
	primary = newClusterNode(t, cfg, []int{2}, nil)
	follower = newClusterNode(t, cfg, nil, []int{2})
	fts := httptest.NewServer(follower.Handler())
	t.Cleanup(fts.Close)

	if err := primary.SetFollower(2, fts.URL); err != nil {
		t.Fatal(err)
	}
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, n/2), pcfg.Core.Dim, 12)
	batch := make([]Reading, 25)
	for sent := 0; sent < n; {
		for k := range batch {
			batch[k] = Reading{Sensor: sensors[(sent+k)%len(sensors)], Value: src.Next()}
		}
		if _, rej, err := primary.Ingest(batch); err != nil || rej != 0 {
			t.Fatalf("ingest: rej %d err %v", rej, err)
		}
		sent += len(batch)
		if between != nil {
			between(primary, batch[0].Value)
		}
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			infos := hosted(t, follower)
			if infos[0].Arrivals == uint64(sent) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("follower stuck at %d/%d arrivals", infos[0].Arrivals, sent)
			}
		}
		pb, err := primary.SnapshotShard(2, false)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := follower.SnapshotShard(2, false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pb, fb) {
			t.Fatalf("replica diverged by reading %d: primary blob %d bytes, follower blob %d bytes, equal=false", sent, len(pb), len(fb))
		}
	}
	return primary, follower
}

// TestReplicaChainEndToEnd checks the follower stays a bit-exact prefix of
// the primary — with the drift monitor armed on a stream that fires, and
// the primary serving reads between batches, which the follower never sees.
func TestReplicaChainEndToEnd(t *testing.T) {
	pcfg := testPipelineConfig(DetectDistance, 1, 120, 11)
	pcfg.Drift = DefaultDriftConfig()
	pcfg.Drift.SampleEvery, pcfg.Drift.JSEvery = 4, 32
	sensor := sensorOnShard(t, 2, 4)
	primary, _ := replicatedPair(t, pcfg, []string{sensor}, 1000, func(primary *Server, v []float64) {
		if _, err := primary.QueryOutlier(sensor, v); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.QueryProb(sensor, v, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	st, err := primary.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if d := st.PerShard[0].Drift; d == nil || d.Refreshes == 0 {
		t.Fatalf("drift arm never adapted (%+v); the chain was not exercised across a fire", d)
	}
}

// TestReplicaCountersMatchPrimary: a follower folds the primary's verdict
// bits instead of judging, yet its counters are the primary's — the shard's
// outlier count and every armed backend's flagged count — so a promotion
// does not reset what /stats and /metrics report. Both criteria: under MDEF
// the judgement the follower skips is the MDEF evaluator's.
func TestReplicaCountersMatchPrimary(t *testing.T) {
	sensorFor := func(prefix string) string {
		name := prefix + "0"
		for i := 1; ShardOf(name, 4) != 2; i++ {
			name = fmt.Sprintf("%s%d", prefix, i)
		}
		return name
	}
	all := backendTestConfig(detector.KindKernelChain, 1, 120, 11)
	var allSensors []string
	for _, k := range detector.AllKinds() {
		prefix := string(k[:1]) + "-"
		if k != detector.KindKernelChain {
			all.Selector = append(all.Selector, BackendRule{Prefix: prefix, Backend: k})
		}
		allSensors = append(allSensors, sensorFor(prefix))
	}
	for _, arm := range []struct {
		name    string
		cfg     PipelineConfig
		sensors []string
	}{
		{"distance/every-backend", all, allSensors},
		{"mdef/kernelchain", testPipelineConfig(DetectMDEF, 1, 120, 11), []string{sensorFor("k-"), sensorFor("m-")}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			primary, follower := replicatedPair(t, arm.cfg, arm.sensors, 1000, nil)
			ps, err := primary.Stats()
			if err != nil {
				t.Fatal(err)
			}
			fs, err := follower.Stats()
			if err != nil {
				t.Fatal(err)
			}
			p, f := ps.PerShard[0], fs.PerShard[0]
			if p.Outliers == 0 || f.Outliers != p.Outliers || f.Ingested != p.Ingested {
				t.Fatalf("follower counts %d outliers of %d readings, primary %d of %d (want equal, nonzero)",
					f.Outliers, f.Ingested, p.Outliers, p.Ingested)
			}
			if len(p.Backends) != len(arm.cfg.armedKinds()) || !reflect.DeepEqual(p.Backends, f.Backends) {
				t.Fatalf("backend counters differ:\nprimary  %+v\nfollower %+v", p.Backends, f.Backends)
			}
			for _, b := range p.Backends {
				if b.Flagged == 0 {
					t.Errorf("backend %s flagged nothing; comparison is vacuous", b.Kind)
				}
			}
		})
	}
}

// TestReplicaLinkReportsItsState: /stats and /metrics say whether a shard
// has a follower and whether the link to it still works. The follower here
// hosts the shard as a primary, so it answers every batch 409 and the link
// reads broken as soon as the first Replicate returns.
func TestReplicaLinkReportsItsState(t *testing.T) {
	standalone, err := New(Config{Shards: 1, Pipeline: testPipelineConfig(DetectDistance, 1, 120, 11)})
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()
	if st, err := standalone.Stats(); err != nil || st.PerShard[0].Replication != nil {
		t.Fatalf("standalone /stats carries a replication block: %+v (err %v)", st.PerShard[0].Replication, err)
	}

	primary := newClusterNode(t, clusterConfig(11), []int{2}, nil)
	refuser := newClusterNode(t, clusterConfig(11), []int{2}, nil)
	rts := httptest.NewServer(refuser.Handler())
	defer rts.Close()

	link := func() ReplicationStats {
		t.Helper()
		st, err := primary.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.PerShard[0].Replication == nil {
			t.Fatal("cluster /stats has no replication block")
		}
		return *st.PerShard[0].Replication
	}
	if got := link(); got.State != "none" {
		t.Fatalf("no follower attached: link reads %+v, want none", got)
	}
	if body := metricsBody(t, primary); strings.Contains(body, "replica_link") {
		t.Fatalf("metrics report a link nobody attached:\n%s", body)
	}
	if err := primary.SetFollower(2, rts.URL); err != nil {
		t.Fatal(err)
	}
	if got := link(); got.State != "ok" {
		t.Fatalf("fresh link reads %+v, want ok", got)
	}
	if _, rej, err := primary.Ingest([]Reading{{Sensor: sensorOnShard(t, 2, 4), Value: []float64{0.5}}}); err != nil || rej != 0 {
		t.Fatalf("ingest: rej %d err %v", rej, err)
	}
	for deadline := time.Now().Add(5 * time.Second); link().State != "broken"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("link reads %+v after the follower refused a batch, want broken", link())
		}
	}
	body := metricsBody(t, primary)
	for _, want := range []string{
		`odds_serve_shard_replica_link_broken{shard="2"} 1`,
		`odds_serve_shard_replicated_batches{shard="2"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q:\n%s", want, body)
		}
	}
}

// TestEpochHandshake pins the map-epoch protocol: stamped requests must
// match the node's epoch exactly (409 + current epoch header otherwise),
// unstamped requests always pass, and epochs only move forward.
func TestEpochHandshake(t *testing.T) {
	srv := newClusterNode(t, clusterConfig(3), []int{0}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if got := srv.SetEpoch(5); got != 5 {
		t.Fatalf("SetEpoch(5) = %d", got)
	}
	if got := srv.SetEpoch(3); got != 5 {
		t.Fatalf("epoch rewound: SetEpoch(3) = %d, want 5", got)
	}

	sensor := sensorOnShard(t, 0, 4)
	body := fmt.Sprintf(`{"readings":[{"sensor":%q,"value":[0.5]}]}`, sensor)
	stamped := func(epoch string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if epoch != "" {
			req.Header.Set(EpochHeader, epoch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusConflict && resp.Header.Get(EpochHeader) != "5" {
			t.Fatalf("409 without current epoch header %q", resp.Header.Get(EpochHeader))
		}
		return resp.StatusCode
	}
	if code := stamped("4"); code != http.StatusConflict {
		t.Fatalf("stale epoch: status %d, want 409", code)
	}
	if code := stamped("6"); code != http.StatusConflict {
		t.Fatalf("future epoch: status %d, want 409", code)
	}
	if code := stamped("5"); code != http.StatusOK {
		t.Fatalf("matching epoch: status %d, want 200", code)
	}
	if code := stamped(""); code != http.StatusOK {
		t.Fatalf("unstamped: status %d, want 200", code)
	}
}

// TestClusterConfigValidation pins the Config.fill cluster rule, and that
// a cluster node starts hosting nothing until a router installs shards.
func TestClusterConfigValidation(t *testing.T) {
	cfg := clusterConfig(1)
	cfg.SnapshotPath = "x"
	if _, err := New(cfg); err == nil {
		t.Error("snapshot path in cluster mode accepted, want error")
	}
	if infos := hosted(t, newClusterNode(t, clusterConfig(1), nil, nil)); len(infos) != 0 {
		t.Fatalf("fresh cluster node hosts %+v, want nothing", infos)
	}
}

// TestAdminOpsRaceRelease: admin ops that send on a shard's mailbox must
// hold the read lock across the send, so a concurrent release (which
// closes the mailbox under the write lock) can never trigger a
// send-on-closed-channel panic. Run with -race.
func TestAdminOpsRaceRelease(t *testing.T) {
	srv := newClusterNode(t, clusterConfig(1), nil, nil)
	for i := 0; i < 200; i++ {
		if err := srv.InstallShard(0, false, nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() { defer wg.Done(); _, _ = srv.SnapshotShard(0, false) }()
		go func() { defer wg.Done(); _ = srv.SetFollower(0, "") }()
		go func() { defer wg.Done(); _ = srv.ReleaseShard(0) }()
		wg.Wait()
		_ = srv.ReleaseShard(0) // no-op if the racing release won
	}
}
