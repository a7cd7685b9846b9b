// Anomaly plumbing: the kernel-side hooks feeding the flight class of
// the attached recorder's telemetry.Log. Metrics say how often; the
// audit log says what was decided at install time; flight events say
// what went wrong on the dispatch path just now, with owner identity
// and wall timestamps. Recording is lock-free and the happy path never
// calls it, so it is safe to leave attached in production.
package kernel

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/telemetry"
)

// flight records one anomaly in the attached recorder's log, tagged
// with the operation's correlation EventID; with no recorder it is a
// no-op.
func (k *Kernel) flight(kind, owner, detail string, eid uint64) {
	if tel := k.tel.Load(); tel != nil {
		tel.rec.Log().Record(telemetry.Event{Class: telemetry.ClassFlight, Kind: kind, Owner: owner, Detail: detail, Event: eid})
	}
}

// dispatchFaultKind classifies a dispatch-path execution error into a
// flight-event kind: fuel exhaustion (the budget caught a runaway),
// memory fault, or any other fault.
func dispatchFaultKind(err error) string {
	if errors.Is(err, machine.ErrFuel) {
		return telemetry.FlightFuelExhausted
	}
	var mf *machine.MemFault
	if errors.As(err, &mf) {
		return telemetry.FlightMemoryFault
	}
	return telemetry.FlightDispatchFault
}

// configChange records a kernel posture change in both durable sinks:
// a structured audit line (the forensic record of who ran with what
// settings) and a flight event (the "what changed just before the
// page" timeline). Same-value sets are still recorded — an operator
// re-asserting a setting is itself a fact worth keeping.
func (k *Kernel) configChange(setting, oldVal, newVal string) {
	tel := k.tel.Load()
	eid := k.nextEvent(tel)
	// A config span puts the EventID in the span class too, so one ID
	// selects all three classes for posture changes.
	span := tel.span(telemetry.StageConfig, "", setting, eid)
	k.audit.Load().configChange(setting, oldVal, newVal, eid)
	k.flight(telemetry.FlightConfigChange, "", fmt.Sprintf("%s: %s -> %s", setting, oldVal, newVal), eid)
	span.End(nil)
}
