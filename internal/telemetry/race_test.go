//go:build race

package telemetry

func init() { raceEnabled = true }
