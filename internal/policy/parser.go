package policy

import (
	"fmt"
	"strconv"
	"strings"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// Parse reads a policy file in the DSL described in the package
// comment. Grammar (one rule per line, '#' comments):
//
//	rule  := ("allow" | "deny") [ "if" cond { "and" cond } ]
//	cond  := [ "not" ] atom
//	atom  := "user" ("=" | "!=") STRING
//	       | "group" "=" STRING
//	       | "capability" "from" STRING
//	       | "bw" ("<" | "<=" | ">" | ">=" | "=") (BANDWIDTH | "avail")
//	       | "time" "within" HH:MM ".." HH:MM
//	       | "has" IDENT "-reservation"
//	       | ("source" | "dest") "=" STRING
//
// Any other condition is refused by name. That includes "attr", a
// free-form attribute test: no broker supplies such facts, so it
// could never hold.
func Parse(name, text string) (*Policy, error) {
	p := &Policy{Name: name}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		rule, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("policy %s line %d: %w", name, lineNo+1, err)
		}
		rule.reason = fmt.Sprintf("rule %d: %s", len(p.Rules)+1, rule.Source)
		p.Rules = append(p.Rules, rule)
	}
	return p, nil
}

// MustParse is Parse that panics on error; for static policy literals.
func MustParse(name, text string) *Policy {
	p, err := Parse(name, text)
	if err != nil {
		panic(err)
	}
	return p
}

func parseRule(line string) (*Rule, error) {
	toks, err := tokenize(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("empty rule")
	}
	rule := &Rule{Source: line}
	switch toks[0].text {
	case "allow":
		rule.Effect = Grant
	case "deny":
		rule.Effect = Deny
	default:
		return nil, fmt.Errorf("rule must start with allow or deny, got %q", toks[0].text)
	}
	toks = toks[1:]
	if len(toks) == 0 {
		return rule, nil
	}
	if toks[0].text != "if" {
		return nil, fmt.Errorf("expected 'if', got %q", toks[0].text)
	}
	toks = toks[1:]
	for {
		var cond Condition
		cond, toks, err = parseCondition(toks)
		if err != nil {
			return nil, err
		}
		rule.Conditions = append(rule.Conditions, cond)
		if len(toks) == 0 {
			return rule, nil
		}
		if toks[0].text != "and" {
			return nil, fmt.Errorf("expected 'and', got %q", toks[0].text)
		}
		toks = toks[1:]
	}
}

type token struct {
	text   string
	quoted bool
}

func tokenize(line string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			j := i + 1
			for j < len(line) && line[j] != '"' {
				j++
			}
			if j >= len(line) {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, token{text: line[i+1 : j], quoted: true})
			i = j + 1
		case strings.ContainsRune("<>=!", rune(c)):
			j := i + 1
			for j < len(line) && strings.ContainsRune("<>=!", rune(line[j])) {
				j++
			}
			toks = append(toks, token{text: line[i:j]})
			i = j
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' && line[j] != '"' &&
				!strings.ContainsRune("<>=!", rune(line[j])) {
				j++
			}
			toks = append(toks, token{text: line[i:j]})
			i = j
		}
	}
	return toks, nil
}

func parseCondition(toks []token) (Condition, []token, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("expected condition")
	}
	if toks[0].text == "not" && !toks[0].quoted {
		inner, rest, err := parseCondition(toks[1:])
		if err != nil {
			return nil, nil, err
		}
		return notCond{inner: inner}, rest, nil
	}
	head := toks[0]
	switch head.text {
	case "user":
		if len(toks) < 3 || (toks[1].text != "=" && toks[1].text != "!=") || !toks[2].quoted {
			return nil, nil, fmt.Errorf("user condition: want user =|!= \"DN\"")
		}
		return userCond{dn: identity.DN(toks[2].text), negate: toks[1].text == "!="}, toks[3:], nil
	case "group":
		if len(toks) < 3 || toks[1].text != "=" || !toks[2].quoted {
			return nil, nil, fmt.Errorf("group condition: want group = \"NAME\"")
		}
		return groupCond{group: toks[2].text}, toks[3:], nil
	case "capability":
		if len(toks) < 3 || toks[1].text != "from" || !toks[2].quoted {
			return nil, nil, fmt.Errorf("capability condition: want capability from \"COMMUNITY\"")
		}
		return capabilityCond{community: toks[2].text}, toks[3:], nil
	case "bw":
		if len(toks) < 3 {
			return nil, nil, fmt.Errorf("bw condition: want bw OP VALUE")
		}
		op := toks[1].text
		switch op {
		case "<", "<=", ">", ">=", "=":
		default:
			return nil, nil, fmt.Errorf("bw condition: bad operator %q", op)
		}
		if toks[2].text == "avail" && !toks[2].quoted {
			return bwCond{op: op, useAvail: true}, toks[3:], nil
		}
		bw, err := units.ParseBandwidth(toks[2].text)
		if err != nil {
			return nil, nil, fmt.Errorf("bw condition: %w", err)
		}
		return bwCond{op: op, limit: bw}, toks[3:], nil
	case "time":
		if len(toks) < 3 || toks[1].text != "within" {
			return nil, nil, fmt.Errorf("time condition: want time within HH:MM..HH:MM")
		}
		from, to, err := parseTimeRange(toks[2].text)
		if err != nil {
			return nil, nil, err
		}
		return timeCond{fromMin: from, toMin: to}, toks[3:], nil
	case "has":
		if len(toks) < 2 || !strings.HasSuffix(toks[1].text, "-reservation") {
			return nil, nil, fmt.Errorf("has condition: want has RESOURCE-reservation")
		}
		res := strings.TrimSuffix(toks[1].text, "-reservation")
		if res == "" {
			return nil, nil, fmt.Errorf("has condition: empty resource")
		}
		return linkedCond{resource: res}, toks[2:], nil
	case "source", "dest":
		if len(toks) < 3 || toks[1].text != "=" || !toks[2].quoted {
			return nil, nil, fmt.Errorf("%s condition: want %s = \"DOMAIN\"", head.text, head.text)
		}
		return domainCond{field: head.text, value: toks[2].text}, toks[3:], nil
	default:
		return nil, nil, fmt.Errorf("unknown condition %q", head.text)
	}
}

// parseTimeRange parses "HH:MM..HH:MM" into minutes-of-day.
func parseTimeRange(s string) (from, to int, err error) {
	parts := strings.SplitN(s, "..", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("time range %q: want HH:MM..HH:MM", s)
	}
	from, err = parseClock(parts[0])
	if err != nil {
		return 0, 0, err
	}
	to, err = parseClock(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

func parseClock(s string) (int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, fmt.Errorf("clock %q: want HH:MM", s)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil || h < 0 || h > 23 {
		return 0, fmt.Errorf("clock %q: bad hour", s)
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil || m < 0 || m > 59 {
		return 0, fmt.Errorf("clock %q: bad minute", s)
	}
	return h*60 + m, nil
}
