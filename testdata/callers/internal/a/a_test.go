package a

import "testing"

func TestOtherGen(t *testing.T) {
	if (Other{}).Gen() != 2 {
		t.Fatal("Other.Gen")
	}
}

func TestReadOnly(t *testing.T) {
	f := NewFields()
	f.readOnly = 1
	if f.Sum() == 0 {
		t.Fatal("Sum")
	}
}
