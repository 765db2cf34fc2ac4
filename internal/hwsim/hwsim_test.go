package hwsim

import (
	"math/rand"
	"testing"

	"repro/internal/poly"
	"repro/internal/ring"
	"repro/internal/rns"
)

// readSlot copies residue rows [lo, hi) of a slot out into fresh rows over
// the slot's primes, through ReadSlotInto.
func readSlot(c *Coprocessor, idx uint8, lo, hi int) []poly.Poly {
	s := c.slotAt(idx)
	rows := make([]poly.Poly, hi-lo)
	for i := range rows {
		rows[i] = poly.NewPoly(c.row(s, lo+i).Mod, c.N)
	}
	c.ReadSlotInto(idx, lo, rows)
	return rows
}

func testBases(t testing.TB, n, kq, kp int) ([]ring.Modulus, []ring.Modulus, *rns.Extender, *rns.ScaleRounder) {
	t.Helper()
	primes, err := ring.GenerateNTTPrimes(30, n, kq+kp)
	if err != nil {
		t.Fatal(err)
	}
	qm := make([]ring.Modulus, kq)
	pm := make([]ring.Modulus, kp)
	for i := 0; i < kq; i++ {
		qm[i] = ring.NewModulus(primes[i])
	}
	for j := 0; j < kp; j++ {
		pm[j] = ring.NewModulus(primes[kq+j])
	}
	qb, err := rns.NewBasis(qm)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := rns.NewBasis(pm)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := rns.NewExtender(qb, pm)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := rns.NewScaleRounder(qb, pb, 2)
	if err != nil {
		t.Fatal(err)
	}
	return qm, pm, ext, sc
}

func testCoproc(t testing.TB, n int) *Coprocessor {
	t.Helper()
	qm, pm, ext, sc := testBases(t, n, 3, 4)
	c, err := New(qm, pm, n, ext, sc, DefaultTiming(), 24)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// --- Fig. 3 schedule ---

func TestNTTScheduleConflictFree(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		cycles, conflicts, err := ValidateNTTSchedule(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(conflicts) != 0 {
			t.Fatalf("n=%d: %d memory conflicts, e.g. %s", n, len(conflicts), conflicts[0])
		}
		// log2(n) stages of n/4 butterfly issues per core.
		want := log2(n) * n / 4
		if cycles != want {
			t.Fatalf("n=%d: schedule has %d cycles, want %d", n, cycles, want)
		}
	}
}

func TestNTTScheduleRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 8, 12, 100} {
		if _, _, err := ValidateNTTSchedule(n); err == nil {
			t.Fatalf("n=%d should be rejected", n)
		}
	}
}

func TestStageScheduleCoversEveryWordOnce(t *testing.T) {
	n := 4096
	for m := 2; m <= n; m *= 2 {
		seen := map[int]int{}
		for _, cyc := range StageReadSchedule(n, m) {
			for _, a := range cyc {
				seen[a.Addr]++
			}
		}
		if len(seen) != n/2 {
			t.Fatalf("m=%d: covered %d words, want %d", m, len(seen), n/2)
		}
		for addr, count := range seen {
			if count != 1 {
				t.Fatalf("m=%d: word %d accessed %d times", m, addr, count)
			}
		}
	}
}

func TestStageScheduleHardStageAlternatesBlocks(t *testing.T) {
	// The m = n/2 stage is the one that forces both cores across both
	// blocks; verify they always land on opposite blocks (the paper's
	// order-inversion trick).
	n := 4096
	words := n / 2
	for _, cyc := range StageReadSchedule(n, n/2) {
		b0 := BlockOf(cyc[0].Addr, words)
		b1 := BlockOf(cyc[1].Addr, words)
		if b0 == b1 {
			t.Fatalf("both cores on %v block in the same cycle", b0)
		}
	}
}

// --- timing model ---

// paperCoproc builds a co-processor of the paper's shape: n = 4096 over 6 q
// and 7 p primes.
func paperCoproc(t testing.TB) *Coprocessor {
	t.Helper()
	qm, pm, ext, sc := testBases(t, 4096, 6, 7)
	c, err := New(qm, pm, 4096, ext, sc, DefaultTiming(), 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInstructionTimingMatchesPaperShape(t *testing.T) {
	// Read the paper-shaped co-processor's cost table (n = 4096) and check
	// the per-instruction microsecond costs stay within 15% of Table II.
	c := paperCoproc(t)
	within := func(op Op, paperMicros float64) {
		t.Helper()
		gotUs := c.Cycles(Instr{Op: op}).Micros()
		if gotUs < paperMicros*0.85 || gotUs > paperMicros*1.15 {
			t.Errorf("%v: %.1f µs, paper %.1f µs (outside ±15%%)", op, gotUs, paperMicros)
		}
	}
	// One RPAU forward transform at n = 4096 is pinned exactly: the cycle
	// model is deterministic, so a one-cycle move is a schedule change.
	if got := NTTCycles(4096, DefaultTiming()); got != 13944 {
		t.Errorf("forward NTT at n = 4096: %d cycles, pinned 13944", got)
	}
	if got := c.Cycles(Instr{Op: OpNTT}) - c.Dispatch(); got != 13944 {
		t.Errorf("the table's NTT at n = 4096: %d cycles before dispatch, pinned 13944", got)
	}
	within(OpNTT, 73.0)
	within(OpINTT, 85.0)
	within(OpCMul, 13.1)
	within(OpCAdd, 13.6)
	within(OpRearr, 20.8)
}

func TestLiftScaleTimingMatchesPaperShape(t *testing.T) {
	c := paperCoproc(t)
	liftUs := c.Cycles(Instr{Op: OpLift}).Micros()
	scaleUs := c.Cycles(Instr{Op: OpScale}).Micros()
	if liftUs < 70 || liftUs > 95 {
		t.Errorf("HPS lift %.1f µs, paper 82.6 µs", liftUs)
	}
	if scaleUs < 70 || scaleUs > 95 {
		t.Errorf("HPS scale %.1f µs, paper 82.7 µs", scaleUs)
	}
	// Paper: the two are almost equal thanks to the block pipeline.
	if ratio := scaleUs / liftUs; ratio > 1.15 || ratio < 0.9 {
		t.Errorf("scale/lift ratio %.2f, paper ≈ 1.0", ratio)
	}

	// Traditional single-core costs at 225 MHz (Sec. VI-C): 1.68 / 4.3 ms.
	tradLiftMs := float64(c.TraditionalCycles(OpLift, 1)) / TradClockHz * 1e3
	tradScaleMs := float64(c.TraditionalCycles(OpScale, 1)) / TradClockHz * 1e3
	if tradLiftMs < 1.4 || tradLiftMs > 2.0 {
		t.Errorf("traditional lift %.2f ms, paper 1.68 ms", tradLiftMs)
	}
	if tradScaleMs < 3.6 || tradScaleMs > 5.0 {
		t.Errorf("traditional scale %.2f ms, paper 4.3 ms", tradScaleMs)
	}
	// The division dominates and is ≈ 4x more expensive for Scale.
	if r := tradScaleMs / tradLiftMs; r < 2.0 || r > 5.0 {
		t.Errorf("traditional scale/lift ratio %.1f, paper ≈ 2.6x (division 4x)", r)
	}
}

func TestDMAModelMatchesTableIIIShape(t *testing.T) {
	d := DMA{Timing: DefaultTiming()}
	single := d.Seconds(Transfer{Bytes: 98304}) * 1e6
	chunk16k := d.Seconds(Transfer{Bytes: 98304, ChunkSize: 16384}) * 1e6
	chunk1k := d.Seconds(Transfer{Bytes: 98304, ChunkSize: 1024}) * 1e6
	// Paper Table III: 76 / 109 / 202 µs. The model must preserve the
	// ordering and approximate the endpoints.
	if !(single < chunk16k && chunk16k < chunk1k) {
		t.Fatalf("ordering broken: %.0f, %.0f, %.0f", single, chunk16k, chunk1k)
	}
	if single < 60 || single > 90 {
		t.Errorf("single transfer %.0f µs, paper 76 µs", single)
	}
	if chunk1k < 160 || chunk1k > 240 {
		t.Errorf("1KB-chunk transfer %.0f µs, paper 202 µs", chunk1k)
	}
	if zero := d.Seconds(Transfer{}); zero != 0 {
		t.Errorf("empty transfer should cost nothing, got %f", zero)
	}
}

func TestArmSWAddMatchesTableI(t *testing.T) {
	arm := ArmModel{Timing: DefaultTiming()}
	// Table I: Add in SW = 54,680,467 cycles = 45.6 ms for one ciphertext
	// addition (2 polynomials of 4096 coefficients).
	got := arm.SWAddArmCycles(4096, 2)
	if got < 45e6 || got > 65e6 {
		t.Fatalf("SW add = %d Arm cycles, paper 54.7M", got)
	}
}

// --- ISA ---

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		in := Instr{
			Op:    Op(1 + r.Intn(int(opSentinel)-1)),
			Dst:   uint8(r.Intn(256)),
			A:     uint8(r.Intn(256)),
			B:     uint8(r.Intn(128)),
			Batch: Batch(r.Intn(2)),
		}
		got, err := DecodeInstr(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != in {
			t.Fatalf("round trip failed: %+v -> %+v", in, got)
		}
	}
}

func TestDecodeRejectsInvalidOpcodes(t *testing.T) {
	if _, err := DecodeInstr(0); err == nil {
		t.Fatal("opcode 0 should be invalid")
	}
	if _, err := DecodeInstr(uint32(opSentinel) << 24); err == nil {
		t.Fatal("sentinel opcode should be invalid")
	}
}

// --- co-processor functional execution ---

func randRows(r *rand.Rand, mods []ring.Modulus, n int) []poly.Poly {
	rows := make([]poly.Poly, len(mods))
	for i, m := range mods {
		rows[i] = poly.NewPoly(m, n)
		for c := 0; c < n; c++ {
			rows[i].Coeffs[c] = r.Uint64() % m.Q
		}
	}
	return rows
}

func TestCoprocNTTMatchesReference(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(2))
	rows := randRows(r, c.Mods[:c.KQ], 64)
	want := make([]poly.Poly, len(rows))
	for i := range rows {
		want[i] = rows[i].Clone()
		c.tables[i].Forward(want[i].Coeffs)
	}
	c.LoadSlotCoeff(0, 0, rows)
	if _, err := c.Exec(Instr{Op: OpNTT, A: 0, Batch: BatchQ}); err != nil {
		t.Fatal(err)
	}
	got := readSlot(c, 0, 0, c.KQ)
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d: coprocessor NTT != reference", i)
		}
	}
	// Round trip back.
	if _, err := c.Exec(Instr{Op: OpINTT, A: 0, Batch: BatchQ}); err != nil {
		t.Fatal(err)
	}
	got = readSlot(c, 0, 0, c.KQ)
	for i := range rows {
		if !got[i].Equal(rows[i]) {
			t.Fatalf("row %d: NTT/INTT round trip failed", i)
		}
	}
}

func TestCoprocDomainTracking(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(3))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64))
	if _, err := c.Exec(Instr{Op: OpNTT, A: 0, Batch: BatchQ}); err != nil {
		t.Fatal(err)
	}
	// A second forward transform on NTT-domain data is a scheduler bug.
	if _, err := c.Exec(Instr{Op: OpNTT, A: 0, Batch: BatchQ}); err == nil {
		t.Fatal("double NTT should be rejected")
	}
	// Mixing domains in CMul is a scheduler bug.
	c.LoadSlotCoeff(1, 0, randRows(r, c.Mods[:c.KQ], 64))
	if _, err := c.Exec(Instr{Op: OpCMul, Dst: 2, A: 0, B: 1, Batch: BatchQ}); err == nil {
		t.Fatal("domain mixing should be rejected")
	}
	// Lift requires coefficient domain.
	if _, err := c.Exec(Instr{Op: OpLift, A: 0}); err == nil {
		t.Fatal("Lift on NTT-domain data should be rejected")
	}
}

func TestCoprocArithmetic(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(4))
	a := randRows(r, c.Mods[:c.KQ], 64)
	b := randRows(r, c.Mods[:c.KQ], 64)
	c.LoadSlotCoeff(0, 0, a)
	c.LoadSlotCoeff(1, 0, b)

	mustExec := func(in Instr) {
		t.Helper()
		if _, err := c.Exec(in); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(Instr{Op: OpCAdd, Dst: 2, A: 0, B: 1, Batch: BatchQ})
	mustExec(Instr{Op: OpCSub, Dst: 3, A: 2, B: 1, Batch: BatchQ})
	got := readSlot(c, 3, 0, c.KQ)
	for i := range a {
		if !got[i].Equal(a[i]) {
			t.Fatalf("(a+b)-b != a on row %d", i)
		}
	}
	mustExec(Instr{Op: OpCMul, Dst: 4, A: 0, B: 1, Batch: BatchQ})
	mustExec(Instr{Op: OpCMac, Dst: 4, A: 0, B: 1, Batch: BatchQ})
	got = readSlot(c, 4, 0, c.KQ)
	for i := range a {
		prod := poly.NewPoly(a[i].Mod, 64)
		a[i].MulInto(b[i], prod)
		want := poly.NewPoly(a[i].Mod, 64)
		prod.AddInto(prod, want)
		if !got[i].Equal(want) {
			t.Fatalf("CMul+CMac != 2ab on row %d", i)
		}
	}
}

func TestCoprocLiftScaleFunctional(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(5))
	a := randRows(r, c.Mods[:c.KQ], 64)
	c.LoadSlotCoeff(0, 0, a)
	if _, err := c.Exec(Instr{Op: OpLift, A: 0}); err != nil {
		t.Fatal(err)
	}
	// Lifted rows must match the functional extender.
	want := poly.NewRNSPoly(c.Mods[c.KQ:], 64)
	c.ext.LiftTargetsInto(poly.RNSPoly{Rows: a}, want.Rows)
	got := readSlot(c, 0, c.KQ, c.KQ+c.KP)
	for j := 0; j < c.KP; j++ {
		if !got[j].Equal(want.Rows[j]) {
			t.Fatalf("lifted row %d mismatch", j)
		}
	}
	// Scale back down: round(2·x/q) of a small |x| compared with the
	// functional scaler.
	if _, err := c.Exec(Instr{Op: OpScale, Dst: 1, A: 0}); err != nil {
		t.Fatal(err)
	}
	full := append(append([]poly.Poly(nil), a...), want.Rows...)
	wantScaled := poly.NewRNSPoly(c.Mods[:c.KQ], 64)
	c.scaler.ScalePolyInto(poly.RNSPoly{Rows: full}, wantScaled)
	gotScaled := readSlot(c, 1, 0, c.KQ)
	for j := 0; j < c.KQ; j++ {
		if !gotScaled[j].Equal(wantScaled.Rows[j]) {
			t.Fatalf("scaled row %d mismatch", j)
		}
	}
}

func TestCoprocStatsAccumulate(t *testing.T) {
	c := testCoproc(t, 64)
	r := rand.New(rand.NewSource(6))
	c.LoadSlotCoeff(0, 0, randRows(r, c.Mods[:c.KQ], 64))
	var prog Program
	prog.AddInstr(Instr{Op: OpNTT, A: 0, Batch: BatchQ})
	prog.AddInstr(Instr{Op: OpINTT, A: 0, Batch: BatchQ})
	prog.AddInstr(Instr{Op: OpRearr, A: 0, Batch: BatchQ})
	prog.AddTransfer(Transfer{Bytes: 98304, Label: "test"})
	total, err := c.Run(&prog)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || c.Stats.Total != total {
		t.Fatalf("total cycles inconsistent: %d vs %d", total, c.Stats.Total)
	}
	if c.Stats.PerOp[OpNTT].Calls != 1 || c.Stats.PerOp[OpINTT].Calls != 1 {
		t.Fatal("per-op call counts wrong")
	}
	if c.Stats.TransferCalls != 1 || c.Stats.TransferSeconds <= 0 {
		t.Fatal("transfer accounting wrong")
	}
	if len(c.Stats.Ops()) != 3 {
		t.Fatalf("expected 3 distinct ops, got %d", len(c.Stats.Ops()))
	}
	c.ResetStats()
	if c.Stats.Total != 0 {
		t.Fatal("reset failed")
	}
}

func TestCoprocRPAUSharing(t *testing.T) {
	// Paper config: 6 q primes + 7 p primes over 7 RPAUs.
	qm, pm, ext, sc := testBases(t, 64, 6, 7)
	c, err := New(qm, pm, 64, ext, sc, DefaultTiming(), 8)
	if err != nil {
		t.Fatal(err)
	}
	// RPAU i serves q_i and p_i: RPAU 0 serves q0 and q6 (= p0), RPAU 6
	// only q12 (= p6).
	if c.NumRPAUs() != 7 {
		t.Fatalf("expected 7 RPAUs, got %d", c.NumRPAUs())
	}
	// The chain shape: RPAU 0 shares the special prime, and the count is the
	// whole chain's at every level the register selects.
	ch := testChain(t, 64, 3)
	for level := 2; level >= 0; level-- {
		if err := ch.SetLevel(level); err != nil {
			t.Fatal(err)
		}
		if ch.NumRPAUs() != 3 {
			t.Fatalf("chain co-processor over 3+1 primes at level %d: %d RPAUs, want 3", level, ch.NumRPAUs())
		}
	}
	if ch.SetLevel(3) == nil || ch.SetLevel(-1) == nil {
		t.Fatal("the level register accepted a level outside the chain")
	}
	if c.SetLevel(0) == nil {
		t.Fatal("the BFV co-processor accepted a level")
	}
}

// --- resources, power, frequency, estimates ---

func TestResourcesMatchTableIV(t *testing.T) {
	cfg := PaperResourceConfig()
	single := CoprocessorResources(cfg)
	within := func(name string, got, want, tolPct int) {
		t.Helper()
		lo := want - want*tolPct/100
		hi := want + want*tolPct/100
		if got < lo || got > hi {
			t.Errorf("%s = %d, paper %d (±%d%%)", name, got, want, tolPct)
		}
	}
	within("single LUT", single.LUT, 63522, 10)
	within("single FF", single.FF, 25622, 10)
	within("single BRAM", single.BRAM, 388, 10)
	if single.DSP != 208 {
		t.Errorf("single DSP = %d, paper 208 (exact)", single.DSP)
	}
	system := SystemResources(cfg, 2)
	within("system LUT", system.LUT, 133692, 10)
	within("system FF", system.FF, 60312, 10)
	within("system BRAM", system.BRAM, 815, 10)
	if system.DSP != 416 {
		t.Errorf("system DSP = %d, paper 416 (exact)", system.DSP)
	}
	// Must fit the device.
	if system.LUT > ZCU102.LUT || system.BRAM > ZCU102.BRAM || system.DSP > ZCU102.DSP {
		t.Error("system exceeds ZCU102 capacity")
	}
	lut, _, bram, _ := system.Utilization(ZCU102)
	if lut < 40 || lut > 60 {
		t.Errorf("LUT utilization %.0f%%, paper 49%%", lut)
	}
	if bram < 80 || bram > 95 {
		t.Errorf("BRAM utilization %.0f%%, paper 89%%", bram)
	}
}

func TestPowerModel(t *testing.T) {
	if PowerW(0) != 5.3 {
		t.Fatal("static power wrong")
	}
	if got := PowerW(1); got < 7.4 || got > 7.6 {
		t.Fatalf("1-core power %.1f, paper 5.3+2.2", got)
	}
	if got := PowerW(2); got < 8.6 || got > 8.8 {
		t.Fatalf("2-core power %.1f, paper 8.7 W peak", got)
	}
}

func TestClockEstimates(t *testing.T) {
	pipelined := EstimateClockHz(1)
	if pipelined < 190e6 || pipelined > 215e6 {
		t.Fatalf("pipelined clock %.0f MHz, paper 200 MHz", pipelined/1e6)
	}
	unpipelined := UnpipelinedClockHz()
	if unpipelined >= pipelined/2 {
		t.Fatalf("unpipelined clock %.0f MHz should be far below the pipelined %.0f MHz",
			unpipelined/1e6, pipelined/1e6)
	}
	// Monotone: fewer registers, slower clock.
	prev := pipelined
	for k := 2; k <= 9; k++ {
		cur := EstimateClockHz(k)
		if cur > prev {
			t.Fatalf("clock not monotone at %d stages/cycle", k)
		}
		prev = cur
	}
}

func TestEstimateParameterSetsMatchesTableV(t *testing.T) {
	rows := EstimateParameterSets(4.46, 0.54, 4)
	if len(rows) != 4 {
		t.Fatal("expected 4 rows")
	}
	// Paper Table V rows: (2^12,180,5.0), (2^13,360,11.9), (2^14,720,29.6),
	// (2^15,1440,80.2) msec.
	wantTotal := []float64{5.0, 11.9, 29.6, 80.2}
	for i, row := range rows {
		if row.LogN != 12+i || row.LogQ != 180<<i {
			t.Fatalf("row %d has wrong parameters: %+v", i, row)
		}
		if row.TotalMS < wantTotal[i]*0.93 || row.TotalMS > wantTotal[i]*1.07 {
			t.Fatalf("row %d total %.1f ms, paper %.1f ms", i, row.TotalMS, wantTotal[i])
		}
	}
	if rows[1].LUT != 128 || rows[1].BRAM != 1.6 || rows[1].DSP != 0.4 {
		t.Fatalf("row 1 resources wrong: %+v", rows[1])
	}
	if rows[3].BRAM != 25.6 {
		t.Fatalf("row 3 BRAM %.1f, paper 25.6K", rows[3].BRAM)
	}
}

func TestNTTUnitAblations(t *testing.T) {
	timing := DefaultTiming()
	paired := NTTCycles(4096, timing)
	// The butterfly issues double; the fixed per-stage overheads dilute the
	// ratio slightly below 2x.
	if NaiveNTTCycles(4096, timing) < 18*paired/10 {
		t.Fatal("naive layout should cost ~2x")
	}
	bubble := BubbleNTTCycles(4096, timing)
	if bubble <= paired || bubble > paired*13/10 {
		t.Fatalf("bubble cycles should add ~20%%: %d vs %d", bubble, paired)
	}
}

func BenchmarkCoprocNTTInstruction(b *testing.B) {
	c := paperCoproc(b)
	r := rand.New(rand.NewSource(1))
	rows := randRows(r, c.Mods[:c.KQ], 4096)
	c.LoadSlotCoeff(0, 0, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := OpNTT
		if i%2 == 1 {
			op = OpINTT
		}
		if _, err := c.Exec(Instr{Op: op, A: 0, Batch: BatchQ}); err != nil {
			b.Fatal(err)
		}
	}
}
