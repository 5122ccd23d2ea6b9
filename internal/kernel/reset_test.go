package kernel

import "testing"

// TestResetMeasurementContract asserts the machine-wide reset
// contract for kernel statistics: measurement counters clear while
// whole-run frame accounting — the Table 3 quantities RealAllocated,
// ImagAllocated, UtilSum, UtilFrames — persists.
func TestResetMeasurementContract(t *testing.T) {
	s := Stats{
		Faults:        7,
		ClientFaults:  4,
		Conversions:   2,
		Migrations:    1,
		MsgPageInReq:  5,
		RealAllocated: 9,
		ImagAllocated: 3,
		UtilSum:       1.5,
		UtilFrames:    4,
	}
	s.ResetMeasurement()
	if s.Faults != 0 || s.ClientFaults != 0 || s.Conversions != 0 ||
		s.Migrations != 0 || s.MsgPageInReq != 0 {
		t.Fatalf("counters survived reset: %+v", s)
	}
	if s.RealAllocated != 9 || s.ImagAllocated != 3 || s.UtilSum != 1.5 || s.UtilFrames != 4 {
		t.Fatalf("whole-run accounting lost: %+v", s)
	}
}

// TestResetKeepsPools asserts that ResetStats only clears measurement
// counters: recycled capacity in the kernel's free-list pools is
// structural state and survives, like the page table and the TLB
// contents (see TestTLBResetContract).
func TestResetKeepsPools(t *testing.T) {
	k := mkKernel(t, 4)
	k.poolPageInReq.Put(k.poolPageInReq.Get())
	k.poolUnmapAck.Put(k.poolUnmapAck.Get())
	k.ResetStats()
	if k.poolPageInReq.Len() != 1 || k.poolUnmapAck.Len() != 1 {
		t.Fatalf("pooled capacity lost across reset: %d/%d",
			k.poolPageInReq.Len(), k.poolUnmapAck.Len())
	}
}
