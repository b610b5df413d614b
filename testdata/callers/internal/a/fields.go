package a

import (
	"encoding/json"
	"sync"
)

// Fields holds one field per way the callers fence sees a field set or
// read, and one per exemption.
type Fields struct {
	readOnly   int // read by cmd; only a test sets it
	setOnly    int // set by NewFields; nothing reads it
	assigned   int
	positional pair
	through    [2]int
	mu         sync.Mutex // set and read by its pointer methods
	scanned    int        // set and read through its address
	Tagged     int        `json:"tagged"` // an external format: exempt
	byKey      map[key]bool
	_          int
}

type pair struct{ x, y int }

// key's fields are read by the map's comparison.
type key struct{ a, b int }

// Status is handed to encoding/json, which reads its fields.
type Status struct{ Ready bool }

// NewFields sets every field it can.
func NewFields() *Fields {
	f := &Fields{setOnly: 1, byKey: map[key]bool{}}
	f.assigned = 2
	f.positional = pair{3, 4}
	f.through[0]++
	f.byKey[key{a: 5, b: 6}] = true
	scan(&f.scanned)
	return f
}

func scan(p *int) { *p = 7 }

// Sum reads every field it can.
func (f *Fields) Sum() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readOnly + f.assigned + f.positional.x + f.positional.y + f.through[0] + f.scanned + len(f.byKey)
}

// Encode hands a Status to encoding/json.
func Encode() ([]byte, error) { return json.Marshal(Status{Ready: true}) }
