package main

import (
	"fmt"
	"math/rand"

	"idivm"
)

// devicesScale sizes devices-mix: the paper's running example
// (Figures 1b and 5b) with tables far larger than one round's diff.
type devicesScale struct {
	parts, devices, fanout int
	phonePct               int // share of devices in the view's category
	priceUpdates           int // non-conditional updates per round
	flipPairs              int // phone→tablet plus tablet→phone flips per round
	churn                  int // live parts deleted and new parts inserted per round
}

// devicesMix is the devices-mix workload. Its generator follows
// internal/workload (uniform prices 1..100, uniform containments, striped
// category selectivity) but issues every modification through the
// facade and keeps the instance stationary: deletes pick live parts only,
// every insert brings exactly fanout containments, and category flips
// come in phone/tablet pairs so the selectivity holds.
func devicesMix(sc devicesScale) *batchWorkload {
	reads := make([]string, 16)
	for i := range reads {
		// Striping puts the phones at the low device ids.
		reads[i] = fmt.Sprintf("SELECT total FROM dev_cost WHERE did = %d", i*sc.devices*sc.phonePct/100/len(reads))
	}
	return &batchWorkload{
		views: []string{
			// The NATURAL JOIN spelling of this view loses rows when a
			// device flips into the selection; NOTES.md has the repro.
			`CREATE VIEW spj AS
			 SELECT devices_parts.did AS did, devices_parts.pid AS pid, price
			 FROM parts, devices_parts, devices
			 WHERE parts.pid = devices_parts.pid AND devices_parts.did = devices.did
			   AND category = 'phone'`,
			`CREATE VIEW dev_cost AS SELECT devices_parts.did AS did, SUM(price) AS total
			 FROM parts, devices_parts, devices
			 WHERE parts.pid = devices_parts.pid AND devices_parts.did = devices.did
			   AND category = 'phone'
			 GROUP BY devices_parts.did`,
		},
		load:          func(d *idivm.DB, rng *rand.Rand) (roundGen, error) { return loadDevices(d, rng, sc) },
		reads:         reads,
		readsPerRound: 4,
		checkEvery:    100,
		accessRounds:  40,
		warmRounds:    3,
	}
}

type devicesGen struct {
	sc       devicesScale
	rng      *rand.Rand
	live     idSet
	contains map[int64][]int64 // pid → devices containing it
	phones   idSet
	tablets  idSet
	nextPid  int64
}

func loadDevices(d *idivm.DB, rng *rand.Rand, sc devicesScale) (roundGen, error) {
	g := &devicesGen{sc: sc, rng: rng, live: newIDSet(), contains: map[int64][]int64{},
		phones: newIDSet(), tablets: newIDSet(), nextPid: int64(sc.parts)}
	for _, t := range []struct {
		name string
		cols []string
		key  []string
	}{
		{"parts", []string{"pid", "price"}, []string{"pid"}},
		{"devices", []string{"did", "category"}, []string{"did"}},
		{"devices_parts", []string{"did", "pid"}, []string{"did", "pid"}},
	} {
		if err := d.CreateTable(t.name, t.cols, t.key...); err != nil {
			return nil, err
		}
	}
	for p := int64(0); p < int64(sc.parts); p++ {
		if err := d.Insert("parts", p, 1+rng.Intn(100)); err != nil {
			return nil, err
		}
		g.live.add(p)
	}
	for dev := int64(0); dev < int64(sc.devices); dev++ {
		cat := "tablet"
		if int(dev)*100/sc.devices < sc.phonePct {
			cat = "phone"
			g.phones.add(dev)
		} else {
			g.tablets.add(dev)
		}
		if err := d.Insert("devices", dev, cat); err != nil {
			return nil, err
		}
	}
	// Containments drawn part-first, so every part has exactly fanout
	// distinct devices — the same shape new parts get.
	for p := int64(0); p < int64(sc.parts); p++ {
		for _, did := range g.attach(p) {
			if err := d.Insert("devices_parts", did, p); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// attach draws fanout distinct devices to contain part pid.
func (g *devicesGen) attach(pid int64) []int64 {
	dids := make([]int64, 0, g.sc.fanout)
	for len(dids) < g.sc.fanout {
		if did := int64(g.rng.Intn(g.sc.devices)); !containsID(dids, did) {
			dids = append(dids, did)
		}
	}
	g.contains[pid] = dids
	return dids
}

func (g *devicesGen) round(w *writer) {
	seen := make(map[int64]bool, g.sc.priceUpdates)
	for len(seen) < g.sc.priceUpdates {
		pid := g.live.pick(g.rng)
		if seen[pid] {
			continue
		}
		seen[pid] = true
		w.update("parts", []any{pid}, map[string]any{"price": 1 + g.rng.Intn(100)})
	}
	for i := 0; i < g.sc.flipPairs; i++ {
		phone, tablet := g.phones.pick(g.rng), g.tablets.pick(g.rng)
		w.update("devices", []any{phone}, map[string]any{"category": "tablet"})
		w.update("devices", []any{tablet}, map[string]any{"category": "phone"})
		g.phones.remove(phone)
		g.tablets.add(phone)
		g.tablets.remove(tablet)
		g.phones.add(tablet)
	}
	for i := 0; i < g.sc.churn; i++ {
		pid := g.live.pick(g.rng)
		for _, did := range g.contains[pid] {
			w.delete("devices_parts", did, pid)
		}
		w.delete("parts", pid)
		g.live.remove(pid)
		delete(g.contains, pid)
	}
	for i := 0; i < g.sc.churn; i++ {
		pid := g.nextPid
		g.nextPid++
		w.insert("parts", pid, 1+g.rng.Intn(100))
		for _, did := range g.attach(pid) {
			w.insert("devices_parts", did, pid)
		}
		g.live.add(pid)
	}
}

func (g *devicesGen) stationary(start, end map[string]int) error {
	for _, t := range []string{"parts", "devices", "devices_parts"} {
		if start[t] != end[t] {
			return fmt.Errorf("%s: %d rows at start, %d at end", t, start[t], end[t])
		}
	}
	if g.phones.len() != g.sc.devices*g.sc.phonePct/100 {
		return fmt.Errorf("phones: %d, want %d", g.phones.len(), g.sc.devices*g.sc.phonePct/100)
	}
	return nil
}

// idSet is a set of ids with uniform random picks.
type idSet struct {
	ids []int64
	pos map[int64]int
}

func newIDSet() idSet { return idSet{pos: map[int64]int{}} }

func (s *idSet) add(id int64) {
	s.pos[id] = len(s.ids)
	s.ids = append(s.ids, id)
}

func (s *idSet) remove(id int64) {
	i, ok := s.pos[id]
	if !ok {
		return
	}
	last := s.ids[len(s.ids)-1]
	s.ids[i] = last
	s.pos[last] = i
	s.ids = s.ids[:len(s.ids)-1]
	delete(s.pos, id)
}

func (s *idSet) pick(rng *rand.Rand) int64 { return s.ids[rng.Intn(len(s.ids))] }
func (s *idSet) len() int                  { return len(s.ids) }

func containsID(xs []int64, x int64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
