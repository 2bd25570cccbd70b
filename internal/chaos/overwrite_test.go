// Overwrite chaos scenarios. A remote overwrite is one round trip: each
// donor's put carries the release of the block it displaces, and donors that
// leave the set are released beside the fan-out. These scenarios drive
// overwrites through lost, delayed and replayed calls on both fabrics and
// under both durability policies, and hold every one of them to the two
// rules the fold must not bend: a failed overwrite leaves the entry absent,
// and nothing a replayed put or release frees belongs to a live generation.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"godm/internal/faulty"
	"godm/internal/pagetable"
	"godm/internal/transport"
)

// runOverwriteScenario parks ids entries fault-free, then overwrites them
// round-robin for rounds rounds under the schedule rules returns, checking
// after every overwrite that it was all-or-nothing and, once the faults are
// off, that every entry is exactly what its last committed overwrite wrote —
// readable through the policy and, per donor, hosted where the map says.
func runOverwriteScenario(t *testing.T, kind FabricKind, seed int64, cfg Config, ids, rounds int, rules func(victims []transport.NodeID) []faulty.Rule) (outcomes []string, donorLive int64) {
	t.Helper()
	cl := New(t, kind, seed, cfg)
	defer cl.Close()
	cl.DumpOnFailure(t)
	var victims []transport.NodeID
	for _, n := range cl.Nodes[1:] {
		victims = append(victims, n.ID())
	}
	vs, err := cl.Nodes[0].AddServer("overwrite", 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := cl.Nodes[0].ID()
	striped := cfg.Durability != ""
	// check holds one entry to what was last committed for it (nil: absent).
	check := func(ctx context.Context, id pagetable.EntryID, want []byte) {
		t.Helper()
		cl.Inj.SetEnabled(false)
		defer cl.Inj.SetEnabled(true)
		if want == nil {
			if _, err := vs.Location(id); !errors.Is(err, pagetable.ErrNotFound) {
				t.Errorf("entry %d: failed overwrite left a location (err=%v)", id, err)
			}
			return
		}
		if got, _, err := vs.Get(ctx, id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("entry %d: Get = %d bytes, %v; want the last committed payload", id, len(got), err)
		}
		if striped {
			RequireStripeDurable(t, cl.Nodes, vs, owner, id, 4, 2)
		} else {
			RequireWriteAtomicity(ctx, t, cl.Inj, vs, id, want, nil)
		}
	}
	cl.Run(t, func(ctx context.Context) {
		cl.Inj.SetEnabled(false)
		cl.HeartbeatRound(ctx)
		committed := make([][]byte, ids)
		for i := range committed {
			committed[i] = cl.Payload(i, 4096)
			if err := vs.PutRemote(ctx, pagetable.EntryID(i), committed[i], 4096, 4096); err != nil {
				t.Fatalf("seeding entry %d: %v", i, err)
			}
		}
		cl.Inj.AddRules(rules(victims))
		cl.Inj.SetEnabled(true)
		for r := 0; r < rounds; r++ {
			i := r % ids
			payload := cl.Payload(1000*(r+1)+i, 4096)
			werr := vs.PutRemote(ctx, pagetable.EntryID(i), payload, 4096, 4096)
			outcomes = append(outcomes, fmt.Sprintf("overwrite %d of entry %d: %s", r, i, Classify(werr)))
			committed[i] = payload
			if werr != nil {
				committed[i] = nil
			}
			check(ctx, pagetable.EntryID(i), committed[i])
		}
		// Everything at once, faults off: an overwrite of one entry must not
		// have cost another its blocks.
		cl.Inj.SetEnabled(false)
		for i, want := range committed {
			check(ctx, pagetable.EntryID(i), want)
		}
	})
	for _, n := range cl.Nodes[1:] {
		donorLive += n.RecvPool().Stats().LiveBytes
	}
	return outcomes, donorLive
}

func overwriteConfigs() map[string]Config {
	return map[string]Config{"rf3": DefaultConfig(), "rs4.2": stripeConfig()}
}

// TestChaosFailedOverwrite: overwrites under the seeded random schedule —
// drops, delays, duplicated calls and a donor that crashes and comes back —
// so some fan-outs lose a donor mid-flight. Every overwrite is all-or-nothing
// and the schedule must actually produce both outcomes.
func TestChaosFailedOverwrite(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	for name, cfg := range overwriteConfigs() {
		for _, kind := range []FabricKind{FabricSim, FabricTCP} {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				schedule := func(victims []transport.NodeID) []faulty.Rule { return faulty.RandomSchedule(seed, victims) }
				out1, _ := runOverwriteScenario(t, kind, seed, cfg, 6, 60, schedule)
				out2, _ := runOverwriteScenario(t, kind, seed, cfg, 6, 60, schedule)
				if !reflect.DeepEqual(out1, out2) {
					t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
				}
				ok, failed := 0, 0
				for _, o := range out1 {
					if containsLabel(o, "ok") {
						ok++
					} else {
						failed++
					}
				}
				if ok == 0 || failed == 0 {
					t.Errorf("%d overwrites committed and %d failed; the scenario needs both", ok, failed)
				}
			})
		}
	}
}

// TestChaosDuplicatedPut: the fabric replays every two-sided call, so each
// put runs twice on its donor — with the release it carries — and so does
// each release of a donor leaving the set. A replay must free nothing that
// is live: every overwrite commits and every entry stays whole on all its
// donors. Under rs4.2 a replayed shard put is refused outright (its sibling
// is already there), so the donors end up holding exactly one generation;
// a replayed replica put may park a second, unreferenced copy, as a replayed
// reserve always could, which eviction reclaims.
func TestChaosDuplicatedPut(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	replayAll := func([]transport.NodeID) []faulty.Rule {
		return []faulty.Rule{{Kind: faulty.KindDuplicate, Verb: faulty.VerbCall, From: faulty.AnyNode, To: faulty.AnyNode, Pct: 100}}
	}
	for name, cfg := range overwriteConfigs() {
		for _, kind := range []FabricKind{FabricSim, FabricTCP} {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				outcomes, live := runOverwriteScenario(t, kind, seed, cfg, 6, 36, replayAll)
				for _, o := range outcomes {
					if !containsLabel(o, "ok") {
						t.Errorf("%s: a replayed call must not fail an overwrite", o)
					}
				}
				if want := int64(6 * 6 * 1024); name == "rs4.2" && live != want {
					t.Errorf("donors hold %d live bytes, want %d: six stripes of six 1 KiB shards, one generation", live, want)
				}
			})
		}
	}
}
