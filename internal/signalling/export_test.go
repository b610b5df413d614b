package signalling

// PoisonAnswers turns poisoning on or off (answer.go) and returns how
// many answers and reply slots it has overwritten since it was last
// turned on.
func PoisonAnswers(on bool) int64 {
	if on {
		poisoned.Store(0)
	}
	poisoning.Store(on)
	return poisoned.Load()
}
