package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"vnfopt/internal/engine"
)

// oracle replays every op the daemon acknowledged, in the order its client
// issued them, through in-process engines built from the same specs, and
// requires every response — placement, comm_cost, total_cost, moves,
// routing summary, repair result — and each scenario's final durable
// state and routing report to equal the daemon's bit for bit, wall-clock
// fields aside. The daemon was SIGKILLed and recovered between warm-up and
// the timed section, so this also proves WAL replay rebuilt the exact
// pre-crash state. Every mismatch counts as a failed op.
//
// Clients own disjoint scenarios, so each client's log replays on its own
// goroutine; marks[c] is where client c's timed section begins in its log.
// It returns the replicas, which carry the totals the daemon's answers
// were just checked against: the route pass's admitted and offered rate
// over every epoch, and the cost and priced rate of the timed section.
func oracle(wl *workload, clients []*client, marks []int, finals, routings [][]byte, res *result) ([]*replica, error) {
	owner := make([]int, len(wl.scenarios))
	for c, ops := range wl.clients {
		for i := range ops {
			owner[ops[i].sc] = c
		}
	}
	reps := make([]*replica, len(wl.scenarios))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = replayClient(wl, c, cl.log, marks[c], owner, reps, finals, routings, res)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return reps, nil
}

func replayClient(wl *workload, c int, log []done, mark int, owner []int, reps []*replica, finals, routings [][]byte, res *result) error {
	for i := range wl.scenarios {
		if owner[i] != c {
			continue
		}
		eng, err := buildEngine(&wl.scenarios[i], nil)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", wl.scenarios[i].ID, err)
		}
		reps[i] = &replica{eng: eng, rates: make([]float64, len(wl.scenarios[i].Pairs))}
		for f, p := range wl.scenarios[i].Pairs {
			reps[i].rates[f] = p.Rate
			reps[i].rate += p.Rate
		}
	}
	for i := range log {
		if i == mark {
			// Warm-up ends here: cost_per_rate is the timed section's.
			for s, o := range owner {
				if o == c {
					reps[s].cost, reps[s].costRate = 0, 0
				}
			}
		}
		d := &log[i]
		if d.failed || d.o.kind == opRead {
			continue
		}
		id := wl.scenarios[d.o.sc].ID
		want, err := reps[d.o.sc].apply(d.o)
		if err != nil {
			res.fail("oracle: %s op %d: library refused what the daemon accepted: %v", id, i, err)
			continue
		}
		got, err := canonDaemon(d.o.kind, d.raw)
		if err != nil {
			res.fail("oracle: %s op %d: undecodable response: %v", id, i, err)
		} else if !bytes.Equal(got, want) {
			res.fail("oracle: %s op %d: daemon %.300s != library %.300s", id, i, got, want)
		}
	}
	for i := range wl.scenarios {
		if owner[i] != c || finals[i] == nil {
			continue
		}
		id := wl.scenarios[i].ID
		var st engine.State
		if err := json.Unmarshal(finals[i], &st); err != nil {
			res.fail("oracle: %s: undecodable final state: %v", id, err)
		} else if !bytes.Equal(canonState(&st), canonState(reps[i].eng.State())) {
			res.fail("oracle: %s: final state differs from the library's", id)
		}
		if routings[i] == nil {
			continue
		}
		var rt struct {
			Routing *engine.RoutingReport `json:"routing"`
		}
		if err := json.Unmarshal(routings[i], &rt); err != nil {
			res.fail("oracle: %s: undecodable routing report: %v", id, err)
			continue
		}
		got, _ := json.Marshal(rt.Routing)
		want, _ := json.Marshal(reps[i].eng.RoutingReport())
		if !bytes.Equal(got, want) {
			res.fail("oracle: %s: final routing report differs from the library's", id)
		}
	}
	return nil
}
