package energy

// PowerMicrowatts exposes the meter's power quantization to the external
// tests.
func (m *Meter) PowerMicrowatts(i int, util float64) int64 { return m.powerMicrowatts(i, util) }

// UtilTables exposes the meter's util-0 and util-1 microwatt tables.
func (m *Meter) UtilTables() (idle, busy []int64) { return m.idleUW, m.busyUW }
