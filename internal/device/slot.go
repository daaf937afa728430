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
}

// NewSlot creates a slot for the configuration shape. The template is
// resolved once, up front: with clone-boot enabled the slot clones and
// recycles; under SetCloneBoot(false) every Acquire falls back to a
// fresh boot, which is the reference slot-driven runs are compared
// against.
func NewSlot(cfg Config) (*Slot, error) {
	tmpl, err := template(cfg)
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
		return BootFresh(cfg)
	}
	// With no previous device this is a cold clone.
	d, err := s.tmpl.cloneWithSeed(seed, s.cur)
	if err != nil {
		// The rewind may have already scrambled the retired device;
		// drop it so the next Acquire cold-starts.
		s.cur = nil
		return nil, err
	}
	s.cur = d
	return d, nil
}
