// Fixture: the scheduler's task and event calls the cluster package
// makes, as stubs.
package sim

type Task struct{}

func (t *Task) Gate()            {}
func (t *Task) Park()            {}
func (t *Task) Ready(at float64) {}

type Sched struct{}

func (s *Sched) Spawn(rank int, fn func(*Task)) *Task { return &Task{} }
