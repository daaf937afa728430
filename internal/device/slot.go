package device

// Slot is a long-lived device seat for fleet workers: the first Acquire
// pays one copy-on-write clone off the sealed template, and every later
// Acquire recycles that clone in place — maps cleared, slabs rewound,
// kernel, driver and flight-recorder storage reused — instead of
// allocating a new device per trial. A slot is owned by exactly one
// worker at a time.
//
// Contract: Acquire retires the previously returned device. The caller
// must have dropped every reference into it (schedulers, clients,
// defenders, attackers) before calling Acquire again; holding on to the
// old device corrupts both it and the new one, because they share
// storage. Results must therefore be extracted (copied out) before the
// next Acquire.
type Slot struct {
	tmpl *Device // sealed template; nil = fresh-boot fallback
	cfg  Config
	cur  *Device

	stats SlotStats
}

// SlotStats counts how a slot satisfied its Acquires. The counts depend
// on how many slots a run opened, and so on its worker count; no fleet
// Result or metric carries them.
type SlotStats struct {
	// Clones counts cold starts (a full CloneWithSeed).
	Clones int
	// Recycles counts in-place rewinds of the previous device.
	Recycles int
	// Fresh counts full BootFresh fallbacks (template unavailable).
	Fresh int
}

// NewSlot creates a slot for the configuration shape. The template is
// resolved once, up front: when the shape is cacheable and clone-boot is
// enabled the slot clones and recycles; otherwise every Acquire falls
// back to a fresh boot (which keeps slot-driven runs byte-identical to
// the equivalence tests' SetCloneBoot(false) mode).
func NewSlot(cfg Config) (*Slot, error) {
	tmpl, err := Template(cfg)
	if err != nil {
		return nil, err
	}
	return &Slot{tmpl: tmpl, cfg: cfg}, nil
}

// Acquire returns a device booted (equivalently: cloned) with the given
// seed, recycling the slot's previous device when possible. The returned
// device is byte-identical to Boot of the same config and seed.
func (s *Slot) Acquire(seed int64) (*Device, error) {
	if s.tmpl == nil {
		cfg := s.cfg
		cfg.Seed = seed
		d, err := BootFresh(cfg)
		if err != nil {
			return nil, err
		}
		s.stats.Fresh++
		s.cur = d
		return d, nil
	}
	if s.cur == nil {
		d, err := s.tmpl.CloneWithSeed(seed)
		if err != nil {
			return nil, err
		}
		s.stats.Clones++
		s.cur = d
		return d, nil
	}
	d, err := s.tmpl.cloneWithSeed(seed, s.cur)
	if err != nil {
		// The rewind may have already scrambled the retired device;
		// drop it so the next Acquire cold-starts.
		s.cur = nil
		return nil, err
	}
	s.stats.Recycles++
	s.cur = d
	return d, nil
}

// Stats returns the slot's acquire counters.
func (s *Slot) Stats() SlotStats { return s.stats }

// Release drops the slot's current device, forcing the next Acquire to
// cold-start. Workers call it when a trial leaves the device in a state
// recycling must not inherit (it never should — the rewind rebuilds
// everything — but a panic mid-trial is safest quarantined).
func (s *Slot) Release() { s.cur = nil }
