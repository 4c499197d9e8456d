package modelcheck

import "testing"

// splitRejoin is the bound that reaches an exclusive grant, a joiner and
// a dropped revocation: two views on two keys split their group by
// narrowing, one pulls alone and is granted, and a widening rejoins the
// group. The primary scopes commits, or nothing is granted. CI runs it
// clean and with -drop 5, which drops the revocation leg of the schedule
// below.
func splitRejoin() Config {
	return Config{Views: 2, Keys: 2, Reconfigs: 3, Depth: 6, WritesPerView: 2,
		Validity: "staleness < 1", SetProps: true, Quiesce: true, Scoped: true}
}

// The revocation leg of a widening is dropped: the holder is evicted, the
// directory waits its lease out before it acks the widening, and the
// joiner's commit then reaches the holder's next pull.
func TestDroppedRevocationWaitsOutLease(t *testing.T) {
	cfg := splitRejoin()
	cfg.DropMessage = 5
	schedule := []Action{
		{Kind: ASetProps, View: 0},
		{Kind: ASetProps, View: 1},
		{Kind: APull, View: 0},
		{Kind: ASetProps, View: 1},
		{Kind: AWrite, View: 1, Key: 0},
		{Kind: APush, View: 1},
		{Kind: APull, View: 0},
	}
	sys, bad, err := replay(cfg.withDefaults(), schedule, nil)
	if err != nil {
		t.Fatalf("replay failed at action %d: %v", bad, err)
	}
	defer sys.close()
	dm := sys.dm()
	if dm.Grants() != 1 || dm.Revocations() != 1 || dm.GrantLeaseWaits() != 1 {
		t.Fatalf("grants %d, revocations %d, lease waits %d; want 1, 1, 1",
			dm.Grants(), dm.Revocations(), dm.GrantLeaseWaits())
	}
}

// A widening set-props makes the view's next pull a full image. Here v2's
// write to k0 is dropped by the directory while k0 is outside v2's set,
// and v1's commit to k0 is older than v2's seen: a delta pull after the
// widening would leave v2 holding its own dropped write.
func TestWideningSetPropsRefetches(t *testing.T) {
	schedule := []Action{
		{Kind: AWrite, View: 0, Key: 0},
		{Kind: AWrite, View: 1, Key: 0},
		{Kind: APull, View: 1},
		{Kind: ASetProps, View: 1},
		{Kind: APush, View: 1},
		{Kind: ASetProps, View: 1},
		{Kind: APush, View: 0},
		{Kind: APull, View: 1},
	}
	sys, bad, err := replay(splitRejoin().withDefaults(), schedule, nil)
	if err != nil {
		t.Fatalf("replay failed at action %d: %v", bad, err)
	}
	sys.close()
}

// A promoted standby serves nothing until its predecessor's grants have
// run out: v1, granted alone by dm!a, pulls from dm!b after v2's widening
// there, so the probe's strong pull finds v2 invalidated. A standby that
// served at once would leave v1 pulling locally, v2 still active.
func TestPromotionOutwaitsGrants(t *testing.T) {
	cfg := splitRejoin()
	cfg.Failover, cfg.Reconfigs = true, 4
	schedule := []Action{
		{Kind: ASetProps, View: 0},
		{Kind: ASetProps, View: 1},
		{Kind: APull, View: 0},
		{Kind: ACrashPrimary},
		{Kind: APromoteStandby},
		{Kind: ASetProps, View: 1},
		{Kind: APush, View: 0},
		{Kind: APush, View: 1},
		{Kind: APull, View: 0},
	}
	sys, bad, err := replay(cfg.withDefaults(), schedule, nil)
	if err != nil {
		t.Fatalf("replay failed at action %d: %v", bad, err)
	}
	defer sys.close()
	if waits := sys.dm().GrantLeaseWaits(); waits != 1 {
		t.Fatalf("the promoted standby waited %d leases out, want 1", waits)
	}
}
