package engine

import "context"

// ctxCheckStride is how many steps/segments run between cancellation
// checks: frequent enough to cancel within microseconds of wall time,
// rare enough to keep ctx polling off the hot path.
const ctxCheckStride = 4096

// runFixed executes the fixed-increment main loop — the paper's §6.3
// reference. Time is stamped as i*dt (not accumulated) so the step count
// is exact and float drift cannot shift capture ticks. The clock is
// advanced to the step's end before the observers run, so both loops
// deliver OnStep at the same semantic instant: the state at the committed
// step's end. Every loop calls, per committed step, in order: m.Hook(i),
// m.Step(dt), the clock advance, m.EndStep(dt).
func (m *Machine) runFixed(ctx context.Context) error {
	dt := m.cfg.StepDt
	steps := int(m.cfg.Duration / dt)
	for i := 0; i < steps; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return m.canceled(ctx)
		}
		m.Hook(i)
		m.now = float64(i) * dt
		m.Step(dt)
		m.now = float64(i+1) * dt
		m.EndStep(dt)
	}
	return nil
}
