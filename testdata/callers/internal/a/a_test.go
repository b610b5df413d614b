package a

import "testing"

func TestOtherGen(t *testing.T) {
	if (Other{}).Gen() != 2 {
		t.Fatal("Other.Gen")
	}
}
