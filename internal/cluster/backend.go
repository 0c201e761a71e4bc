package cluster

import "fmt"

// Backend names an execution backend. The simulator has one: every run
// executes on the discrete-event scheduler (internal/cluster/sim). The
// type, its constants and their spellings remain only because the
// frozen benchmark/ module names them (its span names are the String
// spellings); every value runs the same scheduler.
//
//gnnvet:allow deadexport — shim named by benchmark/ until ROADMAP item 1(b) deletes it
type Backend int

// The selections benchmark/ names. Each runs the discrete-event
// scheduler.
const (
	DefaultBackend Backend = iota
	GoroutineBackend
	DESBackend
)

// BackendEnv names the environment variable benchmark/ clears before
// it measures; the simulator reads no environment.
//
//gnnvet:allow deadexport — shim named by benchmark/ until ROADMAP item 1(b) deletes it
const BackendEnv = "GNN_BACKEND"

// String returns the selection's historical spelling.
func (b Backend) String() string {
	switch b {
	case DefaultBackend:
		return "default"
	case GoroutineBackend:
		return "goroutine"
	case DESBackend:
		return "des"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Resolve returns the backend every selection executes as: DESBackend.
//
//gnnvet:allow deadexport — shim named by benchmark/ until ROADMAP item 1(b) deletes it
func (b Backend) Resolve() Backend { return DESBackend }
