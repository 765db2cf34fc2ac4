package hwsim

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// guardedCoproc builds a small co-processor with the checker on, plus a
// metrics registry to observe the detection counters.
func guardedCoproc(t *testing.T, inj *faults.Injector) (*Coprocessor, *obs.Registry) {
	t.Helper()
	c := testCoproc(t, 64)
	if err := c.EnableIntegrity(7); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.SetMetrics(reg)
	c.SetInjector(inj)
	return c, reg
}

// TestIntegrityFaultFreeIsBitAndCycleIdentical pins the zero-distortion
// property: with the checker on and no faults armed, every instruction
// produces the same data and charges the same cycles as the unguarded path.
func TestIntegrityFaultFreeIsBitAndCycleIdentical(t *testing.T) {
	plain := testCoproc(t, 64)
	guarded, _ := guardedCoproc(t, nil)

	r := rand.New(rand.NewSource(5))
	a := randRows(r, plain.Mods[:plain.KQ], 64)
	b := randRows(r, plain.Mods[:plain.KQ], 64)
	program := []Instr{
		{Op: OpNTT, A: 0, Batch: BatchQ},
		{Op: OpNTT, A: 1, Batch: BatchQ},
		{Op: OpCMul, Dst: 2, A: 0, B: 1, Batch: BatchQ},
		{Op: OpCAdd, Dst: 3, A: 2, B: 0, Batch: BatchQ},
		{Op: OpCMac, Dst: 3, A: 1, B: 2, Batch: BatchQ},
		{Op: OpINTT, A: 3, Batch: BatchQ},
	}
	for _, c := range []*Coprocessor{plain, guarded} {
		c.LoadSlotCoeff(0, 0, a)
		c.LoadSlotCoeff(1, 0, b)
	}
	for _, in := range program {
		pc, perr := plain.Exec(in)
		gc, gerr := guarded.Exec(in)
		if perr != nil || gerr != nil {
			t.Fatalf("%v: plain err %v, guarded err %v", in.Op, perr, gerr)
		}
		if pc != gc {
			t.Fatalf("%v: guarded path charged %d cycles, plain %d", in.Op, gc, pc)
		}
	}
	pr := readSlot(plain, 3, 0, plain.KQ)
	gr := readSlot(guarded, 3, 0, guarded.KQ)
	for j := range pr {
		if !pr[j].Equal(gr[j]) {
			t.Fatalf("row %d differs between guarded and plain paths", j)
		}
	}
	if err := guarded.Scrub(); err != nil {
		t.Fatalf("clean scrub failed: %v", err)
	}
}

// TestIntegrityDetectsBRAMFlip arms a single-bit upset on an operand row:
// the read-stage fingerprint check must refuse the instruction with a typed
// error and count the detection.
func TestIntegrityDetectsBRAMFlip(t *testing.T) {
	inj := faults.New(11)
	inj.Arm(faults.Spec{Class: faults.ClassBRAM, After: 0})
	c, reg := guardedCoproc(t, inj)
	r := rand.New(rand.NewSource(6))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64))

	_, err := c.Exec(Instr{Op: OpNTT, A: 0, Batch: BatchQ})
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity, got %v", err)
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Stage != "read" {
		t.Fatalf("want read-stage IntegrityError, got %v", err)
	}
	if got := reg.Counter("hw_integrity_storage_detected").Value(); got != 1 {
		t.Fatalf("storage detections = %d, want 1", got)
	}
}

// TestIntegrityDetectsLimbGarble arms a whole-limb in-range corruption —
// invisible to range checks, caught only by the fingerprint.
func TestIntegrityDetectsLimbGarble(t *testing.T) {
	inj := faults.New(12)
	inj.Arm(faults.Spec{Class: faults.ClassLimb, After: 0})
	c, reg := guardedCoproc(t, inj)
	r := rand.New(rand.NewSource(7))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64))
	c.LoadSlotCoeff(1, 0, randRows(r, c.Mods[:c.KQ], 64))

	_, err := c.Exec(Instr{Op: OpCAdd, Dst: 2, A: 0, B: 1, Batch: BatchQ})
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity, got %v", err)
	}
	if got := reg.Counter("hw_integrity_storage_detected").Value(); got != 1 {
		t.Fatalf("storage detections = %d, want 1", got)
	}
}

// TestIntegrityDetectsDMAGarble arms a glitched DMA burst: the stored copy
// differs from the (already-tagged) source, so the next read catches it.
func TestIntegrityDetectsDMAGarble(t *testing.T) {
	inj := faults.New(13)
	inj.Arm(faults.Spec{Class: faults.ClassDMA, After: 0})
	c, reg := guardedCoproc(t, inj)
	r := rand.New(rand.NewSource(8))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64)) // DMA fault fires here

	_, err := c.Exec(Instr{Op: OpNTT, A: 0, Batch: BatchQ})
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("want ErrIntegrity, got %v", err)
	}
	if got := reg.Counter("hw_integrity_storage_detected").Value(); got != 1 {
		t.Fatalf("storage detections = %d, want 1", got)
	}
}

// TestIntegrityRecomputesRPAUKill arms a compute-unit kill: the result is
// garbage, the fingerprint prediction catches it, and one recompute from the
// snapshot repairs it — the op succeeds with correct data.
func TestIntegrityRecomputesRPAUKill(t *testing.T) {
	inj := faults.New(14)
	inj.Arm(faults.Spec{Class: faults.ClassRPAU, After: 0, Mode: faults.ModeKill})
	c, reg := guardedCoproc(t, inj)
	plain := testCoproc(t, 64)

	r := rand.New(rand.NewSource(9))
	a := randRows(r, c.Mods[:c.KQ], 64)
	b := randRows(r, c.Mods[:c.KQ], 64)
	for _, cp := range []*Coprocessor{c, plain} {
		cp.LoadSlotNTT(0, 0, a)
		cp.LoadSlotNTT(1, 0, b)
	}
	in := Instr{Op: OpCMul, Dst: 2, A: 0, B: 1, Batch: BatchQ}
	if _, err := c.Exec(in); err != nil {
		t.Fatalf("kill fault not recovered: %v", err)
	}
	if _, err := plain.Exec(in); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("hw_integrity_compute_detected").Value() != 1 ||
		reg.Counter("hw_integrity_recompute_ok").Value() != 1 {
		t.Fatalf("detection/recovery counters wrong: %v", reg.Snapshot().Counters)
	}
	got := readSlot(c, 2, 0, c.KQ)
	want := readSlot(plain, 2, 0, plain.KQ)
	for j := range want {
		if !got[j].Equal(want[j]) {
			t.Fatalf("recomputed row %d wrong", j)
		}
	}
	if err := c.Scrub(); err != nil {
		t.Fatalf("post-recovery scrub: %v", err)
	}
}

// TestIntegrityCountsRPAUStall arms a stall: data stays correct, exactly the
// instruction's cost-table entry plus the stall is charged — to the return
// value and the ledger — and the watchdog detection counted.
func TestIntegrityCountsRPAUStall(t *testing.T) {
	inj := faults.New(15)
	inj.Arm(faults.Spec{Class: faults.ClassRPAU, After: 0, Mode: faults.ModeStall, Param: 777})
	c, reg := guardedCoproc(t, inj)
	plain := testCoproc(t, 64)

	r := rand.New(rand.NewSource(10))
	a := randRows(r, c.Mods[:c.KQ], 64)
	c.LoadSlotCoeff(0, 0, a)
	plain.LoadSlotCoeff(0, 0, a)
	in := Instr{Op: OpNTT, A: 0, Batch: BatchQ}
	nominal := c.Cycles(in)
	before := c.Stats.Total
	gc, err := c.Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := plain.Exec(in)
	if err != nil {
		t.Fatal(err)
	}
	if pc != nominal || gc != nominal+777 || c.Stats.Total-before != gc {
		t.Fatalf("stalled op charged %d cycles (ledger %d), unstalled %d; want Cycles(in) = %d plus 777",
			gc, c.Stats.Total-before, pc, nominal)
	}
	if reg.Counter("hw_integrity_stall_detected").Value() != 1 {
		t.Fatal("stall not counted")
	}
	if !readSlot(c, 0, 0, 1)[0].Equal(readSlot(plain, 0, 0, 1)[0]) {
		t.Fatal("stall corrupted data")
	}
}

// TestScrubDetectsSilentCorruption corrupts a tagged resident row directly
// (the white-box equivalent of an upset in data nothing re-reads): the
// end-of-op scrub must catch it, and ClearSlots must count it on flush.
func TestScrubDetectsSilentCorruption(t *testing.T) {
	c, reg := guardedCoproc(t, nil)
	r := rand.New(rand.NewSource(11))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64))

	c.slots[0].rows[1].Coeffs[17] ^= 1 << 9
	err := c.Scrub()
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("scrub missed the corruption: %v", err)
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) || ie.Stage != "scrub" || ie.Slot != 0 || ie.Row != 1 {
		t.Fatalf("scrub error misattributed: %v", err)
	}
	if reg.Counter("hw_integrity_scrub_detected").Value() != 1 {
		t.Fatal("scrub detection not counted")
	}
	c.ClearSlots()
	if reg.Counter("hw_integrity_flush_detected").Value() != 1 {
		t.Fatal("flush detection not counted")
	}
}
