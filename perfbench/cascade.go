package main

import (
	"fmt"
	"math/rand"

	"idivm"
)

// cascadeScale sizes cascade-rollup.
type cascadeScale struct {
	users, cities, updates int
}

// cascadeRollup is the cascade-rollup workload: the BSMA user table of
// internal/bsma (tweetsnum 0..999, favornum 0..499) under a two-level SQL
// cascade, per-city sums and a histogram over them. Users are dealt to
// cities in shuffled order, so every city has the same number of users
// and the group structure does not vary with the seed. Each round updates
// distinct users' counters, so the table never changes size.
func cascadeRollup(sc cascadeScale) *batchWorkload {
	reads := make([]string, 16)
	for i := range reads {
		reads[i] = fmt.Sprintf("SELECT tweets FROM city_stats WHERE city = 'city%d'", i*sc.cities/len(reads))
	}
	return &batchWorkload{
		views: []string{
			`CREATE VIEW city_stats AS
			 SELECT city AS city, SUM(tweetsnum) AS tweets, SUM(favornum) AS favors
			 FROM user GROUP BY city`,
			`CREATE VIEW tweet_histogram AS
			 SELECT tweets AS tweets, COUNT(*) AS cities, SUM(favors) AS favors
			 FROM city_stats GROUP BY tweets`,
		},
		load:          func(d *idivm.DB, rng *rand.Rand) (roundGen, error) { return loadUsers(d, rng, sc) },
		reads:         reads,
		readsPerRound: 4,
		checkEvery:    200,
		accessRounds:  100,
		warmRounds:    10,
	}
}

type cascadeGen struct {
	sc  cascadeScale
	rng *rand.Rand
}

func loadUsers(d *idivm.DB, rng *rand.Rand, sc cascadeScale) (roundGen, error) {
	if err := d.CreateTable("user", []string{"uid", "city", "tweetsnum", "favornum"}, "uid"); err != nil {
		return nil, err
	}
	for u, c := range rng.Perm(sc.users) {
		city := fmt.Sprintf("city%d", c%sc.cities)
		if err := d.Insert("user", u, city, rng.Intn(1000), rng.Intn(500)); err != nil {
			return nil, err
		}
	}
	return &cascadeGen{sc: sc, rng: rng}, nil
}

func (g *cascadeGen) round(w *writer) {
	seen := make(map[int]bool, g.sc.updates)
	for len(seen) < g.sc.updates {
		u := g.rng.Intn(g.sc.users)
		if seen[u] {
			continue
		}
		seen[u] = true
		w.update("user", []any{u}, map[string]any{"tweetsnum": g.rng.Intn(1000), "favornum": g.rng.Intn(500)})
	}
}

func (g *cascadeGen) stationary(start, end map[string]int) error {
	if start["user"] != end["user"] || end["user"] != g.sc.users {
		return fmt.Errorf("user: %d rows at start, %d at end, want %d", start["user"], end["user"], g.sc.users)
	}
	return nil
}
