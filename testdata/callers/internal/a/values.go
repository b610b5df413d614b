package a

// Knobs holds one field per way the fence sees a default.
type Knobs struct {
	Defaulted int            // only its own default sets it: a constant
	Derived   int            // set under a guard that reads Defaulted: a set
	lazy      map[string]int // unexported: lazy initialisation, not a knob
}

// Tune defaults what is unset and reads every knob.
func (k *Knobs) Tune() int {
	if k.Defaulted <= 0 {
		k.Defaulted = 8
	}
	if k.Defaulted > 4 {
		k.Derived = k.Defaulted / 2
	}
	if k.lazy == nil {
		k.lazy = map[string]int{}
	}
	return k.Defaulted + k.Derived + len(k.lazy)
}

// Scale's two callers pass the same factor: a constant.
func Scale(x, factor int) int { return x * factor }

// Window's one caller passes the value its default replaces: a
// constant.
func Window(size int) int {
	if size <= 0 {
		size = 64
	}
	return size
}

// Once has one caller and no default: one call is not a pattern.
func Once(n int) int { return n + 1 }

// Sizer fixes Size's signature for every implementation.
type Sizer interface{ Size(unit int) int }

// Box's Size is an interface method: exempt.
type Box struct{}

// Size scales unit.
func (Box) Size(unit int) int { return unit * 2 }

// AppendTo follows the append idiom, a nil buf from every caller:
// exempt.
func AppendTo(buf []byte, b byte) []byte { return append(buf, b) }

// Apply is also used as a value, so its calls are not all seen: exempt.
func Apply(n int) int { return n * 3 }

// Sum's variadic parameter is exempt.
func Sum(base int, xs ...int) int {
	for _, x := range xs {
		base += x
	}
	return base
}
