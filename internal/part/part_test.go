package part

import "testing"

func TestAuto(t *testing.T) {
	cases := []struct{ regs, want int }{
		{0, 1}, {63, 1}, {127, 1}, // small designs stay monolithic
		{128, 2}, {378, 5}, {640, 10},
		{64 * MaxShards, MaxShards}, {1 << 20, MaxShards}, // capped
	}
	for _, tc := range cases {
		if got := Auto(tc.regs); got != tc.want {
			t.Errorf("Auto(%d) = %d, want %d", tc.regs, got, tc.want)
		}
	}
}
