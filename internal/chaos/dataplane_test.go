// Data-plane chaos scenarios: a replica holder whose puts all fail
// mid-fan-out, and batched client writes that must stay atomic while their
// target takes no puts. Both run on the simulated and the TCP fabric and
// replay deterministically per seed.
package chaos

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"godm/internal/core"
	"godm/internal/faulty"
	"godm/internal/pagetable"
)

// runFanoutVictimScenario makes every put to one replica holder fail while
// every other donor stays healthy — the worst case for the parallel fan-out,
// because the copies land everywhere else and exactly one stream of the
// fan-out dies. Every failed write must roll back to zero stranded copies on
// every node; every committed write must be intact on all holders.
func runFanoutVictimScenario(t *testing.T, kind FabricKind, seed int64, writes int) (outcomes []string) {
	t.Helper()
	cl := New(t, kind, seed, DefaultConfig())
	defer cl.Close()
	victim := cl.Nodes[len(cl.Nodes)-1].ID()
	cl.Inj.AddRule(faulty.Rule{Kind: faulty.KindDrop, Verb: faulty.VerbCall,
		From: faulty.AnyNode, To: victim, Pct: 100})

	vs, err := cl.Nodes[0].AddServer("fanout", 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := cl.Nodes[0].ID()
	failed := 0
	cl.Run(t, func(ctx context.Context) {
		cl.Inj.SetEnabled(false)
		cl.HeartbeatRound(ctx)
		cl.Inj.SetEnabled(true)

		for i := 0; i < writes; i++ {
			id := pagetable.EntryID(i)
			payload := cl.Payload(i, 4096)
			werr := vs.PutRemote(ctx, id, payload, 4096, 4096)
			outcomes = append(outcomes, fmt.Sprintf("put %d: %s", i, Classify(werr)))
			RequireWriteAtomicity(ctx, t, cl.Inj, vs, id, payload, werr)
			if werr != nil {
				failed++
				// The decisive check: the aborted fan-out released every
				// copy it parked on every node — the ones that landed
				// before the victim's stream died.
				RequireNoStrandedCopies(t, cl.Nodes, owner, vs.WireKey(id))
			}
		}
	})
	if failed == 0 {
		t.Errorf("no write ever picked victim %d as a replica; scenario exercised nothing", victim)
	}
	return outcomes
}

func TestChaosFanoutVictimSim(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	out1 := runFanoutVictimScenario(t, FabricSim, seed, 20)
	out2 := runFanoutVictimScenario(t, FabricSim, seed, 20)
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
	}
}

func TestChaosFanoutVictimTCP(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	out1 := runFanoutVictimScenario(t, FabricTCP, seed, 20)
	out2 := runFanoutVictimScenario(t, FabricTCP, seed, 20)
	if !reflect.DeepEqual(out1, out2) {
		t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
	}
}

// runBatchAtomicityScenario drives window-batched client writes (PutAll)
// against a donor that goes dark halfway through: batches issued while its
// puts are dropped must abort as a unit — previous versions intact, no
// blocks left from the abort — and batches after recovery must commit as a
// unit.
func runBatchAtomicityScenario(t *testing.T, kind FabricKind, seed int64) (outcomes []string) {
	t.Helper()
	cl := New(t, kind, seed, Config{Nodes: 2, ReplicationFactor: 1, HeartbeatTimeout: 3})
	defer cl.Close()
	client := core.NewClient(cl.Eps[0])
	target := cl.Nodes[1]
	owner := cl.Nodes[0].ID()
	const window = 6

	cl.Run(t, func(ctx context.Context) {
		prev := map[uint64][]byte{}
		round := 0
		putRound := func(keys []uint64) {
			entries := make([]core.Entry, len(keys))
			for i, k := range keys {
				entries[i] = core.Entry{Key: k, Data: cl.Payload(round*100+int(k), 1024)}
			}
			werr := client.PutAll(ctx, target.ID(), entries)
			outcomes = append(outcomes, fmt.Sprintf("batch %d: %s", round, Classify(werr)))
			RequireBatchAtomicity(ctx, t, cl.Inj, client, target, owner, entries, prev, werr)
			if werr == nil {
				for _, e := range entries {
					prev[e.Key] = e.Data
				}
			}
			round++
		}
		keys := make([]uint64, window)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		// Seed versions land fault-free.
		cl.Inj.SetEnabled(false)
		putRound(keys)
		cl.Inj.SetEnabled(true)

		// Dark phase: every put to the donor is dropped. Half the keys
		// already exist (overwrites, whose displaced blocks ride the put and
		// must survive its loss), half are fresh per round.
		cl.Inj.AddRule(faulty.Rule{Kind: faulty.KindDrop, Verb: faulty.VerbCall,
			From: faulty.AnyNode, To: target.ID(), Pct: 100})
		for r := 0; r < 3; r++ {
			mixed := append([]uint64{}, keys[:window/2]...)
			for i := window / 2; i < window; i++ {
				mixed = append(mixed, uint64(100+round*10+i))
			}
			putRound(mixed)
		}

		// Recovery: the same keys commit wholesale.
		cl.Inj.SetEnabled(false)
		putRound(keys)
	})
	return outcomes
}

func TestChaosBatchAtomicity(t *testing.T) {
	seed := *chaosSeed
	logSeed(t, seed)
	for _, kind := range []FabricKind{FabricSim, FabricTCP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			out1 := runBatchAtomicityScenario(t, kind, seed)
			out2 := runBatchAtomicityScenario(t, kind, seed)
			if !reflect.DeepEqual(out1, out2) {
				t.Errorf("outcome replay differs:\n run1: %v\n run2: %v", out1, out2)
			}
			want := []string{"batch 0: ok", "batch 1: injected", "batch 2: injected", "batch 3: injected", "batch 4: ok"}
			if !reflect.DeepEqual(out1, want) {
				t.Errorf("outcomes = %v, want %v", out1, want)
			}
		})
	}
}
