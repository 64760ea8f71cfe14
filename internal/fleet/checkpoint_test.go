package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"github.com/reconpriv/reconpriv/internal/datagen"
	"github.com/reconpriv/reconpriv/internal/serve"
	"github.com/reconpriv/reconpriv/internal/wire"
)

// digestOf reads one holder's generation-qualified digest over its
// transport — the same exchange ReplicaAgreement performs, exposed so tests
// can compare digests across fleets, not just within one.
func digestOf(t *testing.T, f *Fleet, holder int, id string) string {
	t.Helper()
	resp, err := f.control(f.replicas[holder], http.MethodGet, "/digest?id="+id, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != http.StatusOK {
		t.Fatalf("digest from replica %d returned %d: %s", holder, resp.status, resp.body)
	}
	var d struct {
		Generation int    `json:"generation"`
		Digest     string `json:"digest"`
	}
	if err := json.Unmarshal(resp.body, &d); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("g%d:%s", d.Generation, d.Digest)
}

// runCheckpointScript drives one fleet through a fixed mutation interleaving
// — JSON inserts, binary inserts, refreshes — killing the first holder
// partway so two mutations land in the log while it is down. Deterministic
// record generation makes the script bit-identical across fleets.
func runCheckpointScript(t *testing.T, f *Fleet, id string) (victim int) {
	t.Helper()
	h := f.Handler()
	schema := datagen.MedicalSchema()
	rng := rand.New(rand.NewSource(23))
	insertJSON := func(n int) {
		t.Helper()
		recs, _ := insertRecords(rng, n)
		code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
			map[string]any{"id": id, "records": recs, "wait": true}, nil)
		if code != http.StatusOK {
			t.Fatalf("insert returned %d", code)
		}
	}
	insertBin := func(n int) {
		t.Helper()
		_, codes := insertRecords(rng, n)
		req := wire.InsertReq{ID: []byte(id), Wait: true, NAttrs: schema.NumAttrs(), Records: codes}
		code, body := doRaw(t, h, "/insert", wire.ContentType, req.Append(nil))
		if code != http.StatusOK {
			t.Fatalf("binary insert returned %d: %s", code, body)
		}
	}
	refresh := func() {
		t.Helper()
		if err := f.Refresh(id); err != nil {
			t.Fatal(err)
		}
	}

	// Four mutations while everyone is alive — exactly CheckpointLog for the
	// checkpointing fleet, which folds them into a snapshot…
	insertJSON(10)
	insertBin(12)
	refresh()
	insertJSON(8)
	// …then two more with a holder dead: the checkpoint's tail.
	victim = f.Holders(id)[0]
	f.KillReplica(victim)
	insertBin(9)
	refresh()
	return victim
}

// TestCheckpointRestartByteIdentity is the checkpoint correctness pin: a
// replica restarted from snapshot + log tail must be digest-identical to
// one that replayed the full mutation log, and both to a holder that never
// died — across an interleaving of JSON inserts, binary inserts, and
// refreshes, and through further mutations after the restart.
func TestCheckpointRestartByteIdentity(t *testing.T) {
	mk := func(checkpointLog int) (*Fleet, string) {
		f := New(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second,
			CheckpointLog: checkpointLog})
		t.Cleanup(f.Close)
		id, err := f.Publish(incPublish(19))
		if err != nil {
			t.Fatal(err)
		}
		return f, id
	}
	fA, id := mk(4) // checkpoints after the 4th mutation
	fB, idB := mk(-1)
	if id != idB {
		t.Fatalf("fleets placed different ids: %q vs %q", id, idB)
	}

	vA := runCheckpointScript(t, fA, id)
	vB := runCheckpointScript(t, fB, id)
	if vA != vB {
		t.Fatalf("victims differ: %d vs %d (placement is pure)", vA, vB)
	}

	// The checkpointing fleet folded the first four mutations and kept the
	// two post-kill ones as tail; the other kept the full history.
	if got := fA.MutationLogLen(id); got != 2 {
		t.Fatalf("checkpointed log length = %d, want 2 (tail only)", got)
	}
	if st := fA.Stats(); st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if got := fB.MutationLogLen(id); got != 6 {
		t.Fatalf("unbounded log length = %d, want 6 (full history)", got)
	}
	if st := fB.Stats(); st.Checkpoints != 0 {
		t.Fatalf("disabled checkpointing still folded %d times", st.Checkpoints)
	}

	// The router's own view reports the fold.
	var pubs []pubJSON
	if code, _ := doJSON(t, fA.Handler(), http.MethodGet, "/publications", nil, nil, &pubs); code != http.StatusOK {
		t.Fatalf("publications returned %d", code)
	}
	if len(pubs) != 1 || !pubs[0].Checkpointed || pubs[0].LogLen != 2 {
		t.Fatalf("publications view = %+v, want checkpointed with log_len 2", pubs)
	}

	// Restart: fA's victim restores snapshot + tail, fB's replays request +
	// full log. Within each fleet the victim must agree with the survivor;
	// across fleets all digests must be one value.
	if err := fA.RestartReplica(vA); err != nil {
		t.Fatal(err)
	}
	if err := fB.RestartReplica(vB); err != nil {
		t.Fatal(err)
	}
	if err := fA.ReplicaAgreement(id); err != nil {
		t.Fatalf("agreement after snapshot+tail restart: %v", err)
	}
	if err := fB.ReplicaAgreement(id); err != nil {
		t.Fatalf("agreement after full-log restart: %v", err)
	}
	dA, dB := digestOf(t, fA, vA, id), digestOf(t, fB, vB, id)
	if dA != dB {
		t.Fatalf("snapshot+tail restart diverges from full-log restart: %s vs %s", dA, dB)
	}

	// Continuation: identical further mutations keep both fleets — restored
	// holders included — on one digest (the restored streaming state is the
	// same state, not a lookalike).
	for _, f := range []*Fleet{fA, fB} {
		h := f.Handler()
		rng := rand.New(rand.NewSource(31))
		recs, _ := insertRecords(rng, 7)
		if code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
			map[string]any{"id": id, "records": recs, "wait": true}, nil); code != http.StatusOK {
			t.Fatalf("continuation insert returned %d", code)
		}
		if err := f.Refresh(id); err != nil {
			t.Fatal(err)
		}
		if err := f.ReplicaAgreement(id); err != nil {
			t.Fatalf("continuation agreement: %v", err)
		}
	}
	dA, dB = digestOf(t, fA, vA, id), digestOf(t, fB, vB, id)
	if dA != dB {
		t.Fatalf("fleets diverge after continuation: %s vs %s", dA, dB)
	}
}

// TestCheckpointBoundsMutationLog: with checkpointing enabled the log never
// grows past the configured threshold — every time a mutation fills it, the
// fold truncates it — so restart replay cost is bounded no matter how long
// the fleet ingests.
func TestCheckpointBoundsMutationLog(t *testing.T) {
	const limit = 4
	f := New(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second,
		CheckpointLog: limit})
	t.Cleanup(f.Close)
	id, err := f.Publish(incPublish(37))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	rng := rand.New(rand.NewSource(37))
	const mutations = 21
	for i := 0; i < mutations; i++ {
		if i%5 == 4 {
			if err := f.Refresh(id); err != nil {
				t.Fatal(err)
			}
		} else {
			recs, _ := insertRecords(rng, 3)
			if code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
				map[string]any{"id": id, "records": recs, "wait": true}, nil); code != http.StatusOK {
				t.Fatalf("insert %d returned %d", i, code)
			}
		}
		if got := f.MutationLogLen(id); got >= limit {
			t.Fatalf("after mutation %d: log length %d, want < %d (fold never ran)", i, got, limit)
		}
	}
	if st := f.Stats(); st.Checkpoints != mutations/limit {
		t.Fatalf("checkpoints = %d, want %d", st.Checkpoints, mutations/limit)
	}
	// A restart replays snapshot + short tail and still lands on the
	// survivors' digest.
	victim := f.Holders(id)[0]
	f.KillReplica(victim)
	if err := f.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("agreement after bounded-log restart: %v", err)
	}
}

// TestCrossProcessKillMidBatch is the cross-process failover pin: a fleet
// of spawned child processes loses one to a real OS kill in the middle of a
// query/insert batch and keeps answering over real sockets — every
// operation succeeds, every answered query charges exactly once, the log
// keeps folding into checkpoints, and after the child is respawned and
// replayed all holders agree bit-for-bit.
func TestCrossProcessKillMidBatch(t *testing.T) {
	f, err := NewProcs(Config{Replicas: 3, ReplicationFactor: 2, Timeout: 2 * time.Second,
		EjectAfter: 2, ProbeAfter: 2, CheckpointLog: 3,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	id, err := f.Publish(incPublish(29))
	if err != nil {
		t.Fatal(err)
	}
	h := f.Handler()
	rng := rand.New(rand.NewSource(29))
	victim := f.Holders(id)[0]

	queries, total := 0, 500
	for i := 0; i < 40; i++ {
		switch i {
		case 15:
			// A real process kill: the child is dead, its socket refuses.
			f.KillReplica(victim)
			if f.replicas[victim].alive.Load() {
				t.Fatal("victim still marked alive after kill")
			}
		case 30:
			// Respawn and replay; the child rejoins through the probe path.
			if err := f.RestartReplica(victim); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 2 {
			recs, _ := insertRecords(rng, 5)
			total += len(recs)
			var ins struct {
				Inserted     int `json:"inserted"`
				TotalRecords int `json:"total_records"`
			}
			code, _ := doJSON(t, h, http.MethodPost, "/insert", nil,
				map[string]any{"id": id, "records": recs, "wait": true}, &ins)
			if code != http.StatusOK {
				t.Fatalf("insert at op %d returned %d", i, code)
			}
			if ins.Inserted != len(recs) || ins.TotalRecords != total {
				t.Fatalf("op %d: inserted %d/%d records, total %d want %d — a batch was lost",
					i, ins.Inserted, len(recs), ins.TotalRecords, total)
			}
		} else {
			var resp serve.QueryResponse
			code, _ := doJSON(t, h, http.MethodPost, "/query", nil, queryBody(id, "kc", 2), &resp)
			if code != http.StatusOK {
				t.Fatalf("query at op %d returned %d", i, code)
			}
			queries++
		}
	}

	// Exactly-once accounting across the kill: every answered query charged
	// its 2 cells once — nothing lost, nothing double-charged.
	if got := f.ClientExposure("kc"); got != int64(2*queries) {
		t.Fatalf("client exposure = %d, want %d", got, 2*queries)
	}
	if got := f.TotalExposure(); got != int64(2*queries) {
		t.Fatalf("fleet total = %d, want %d", got, 2*queries)
	}
	// The restarted process serves the same bits as the survivor.
	if err := f.ReplicaAgreement(id); err != nil {
		t.Fatalf("cross-process agreement after kill/restart: %v", err)
	}
	st := f.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("mutation log never folded into a checkpoint")
	}
	if st.Transport != "spawned" {
		t.Fatalf("transport = %q, want spawned", st.Transport)
	}
	if got := f.MutationLogLen(id); got >= 3 {
		t.Fatalf("log length %d at end, want < 3 (checkpoint bound)", got)
	}
}
