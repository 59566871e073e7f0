package main

import (
	"fmt"
	"math/rand"

	"sacs/internal/core"
	"sacs/internal/goals"
	"sacs/internal/population"
	"sacs/internal/runner"
)

// The stationary population keeps the S2 agent (full stack, random-walk
// load sensor, goal switch at tick 60) but bounds who talks to whom: every
// agent gossips to its ring successor and, on every fourth tick, to one of
// four fixed peers in rotation. Each agent therefore hears from exactly
// five sources, so its model count levels off at once. For the first
// historyLen ticks it sends to all four fixed peers every tick, so every
// model's bounded history is full before warm-up ends; a history that
// still grows would make the heap, and GC work, depend on how many ticks a
// run managed. After warm-up the ticks are statistically alike.
var (
	goalSteady = goals.NewSet("steady",
		goals.Objective{Name: "load", Direction: goals.Minimize, Weight: 1, Scale: 10})
	goalSurge = goals.NewSet("surge",
		goals.Objective{Name: "load", Direction: goals.Maximize, Weight: 2, Scale: 10,
			Constrained: true, Bound: 25})
	peerOffsets = [4]int{3, 61, 509, 1021}
)

// historyLen is the history bound of the knowledge store core.New gives
// every agent.
const historyLen = 64

// steadyWorkload names steadyConfig in the serve and cluster registries.
const steadyWorkload = "steady"

// steadyConfig builds the stationary population. Its signature matches
// serve.Workload.Build and cluster.Workload.Build, so the same builder runs
// in-process, on a loopback worker and behind the HTTP server.
func steadyConfig(agents, shards int, seed int64, pool *runner.Pool) population.Config {
	return population.Config{
		Name:   "steady",
		Agents: agents,
		Shards: shards,
		Seed:   seed,
		Pool:   pool,
		New: func(id int, rng *rand.Rand) *core.Agent {
			sw := goals.NewSwitcher(goalSteady)
			sw.ScheduleSwitch(60, goalSurge)
			var a *core.Agent
			a = core.New(core.Config{
				Name:  fmt.Sprintf("a%06d", id),
				Caps:  core.FullStack,
				Goals: sw,
				Sensors: []core.Sensor{core.ScalarSensor("load", core.Private,
					func(now float64) float64 {
						return a.Store().Value("stim/load", float64(id%11)) + rng.Float64() - 0.48
					})},
				ExplainDepth: 8,
			})
			return a
		},
		Emit: func(ctx *population.EmitContext) {
			load := ctx.Agent.Store().Value("stim/load", 0)
			stim := core.Stimulus{Name: "load", Source: ctx.Agent.Name(),
				Scope: core.Public, Value: load, Time: ctx.Now}
			ctx.Send((ctx.ID+1)%agents, stim)
			for i, off := range peerOffsets {
				if ctx.Tick < historyLen || ctx.Tick%16 == 4*i {
					ctx.Send((ctx.ID+off)%agents, stim)
				}
			}
		},
		Observe: func(id int, a *core.Agent) float64 {
			return a.Store().Value("stim/load", 0)
		},
	}
}
