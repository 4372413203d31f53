package llm

import "unicode"

// CountTokens estimates the token count of text with the standard
// byte-pair-encoding rule of thumb: roughly one token per four characters,
// but never fewer tokens than whitespace-delimited words (short words cost a
// full token each). The estimate only needs to be proportional and
// deterministic — CEDAR's cost model works on relative token volumes.
func CountTokens(text string) int {
	return tokensOf(len(text), countWords(text))
}

// tokensOf is CountTokens of a text of n bytes holding words words.
func tokensOf(n, words int) int {
	byChars := (n + 3) / 4
	if words > byChars {
		return words
	}
	return byChars
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// countWords is len(strings.Fields(text)) without the slice: prompts run to
// kilobytes and every completion counts its prompt, so the word list was a
// few kilobytes of garbage per call. Like Fields it counts bytes while the
// text is ASCII and decodes runes only when it is not.
func countWords(text string) int {
	words := 0
	inSpace := uint8(1)
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 0x80 {
			return countWordsUnicode(text)
		}
		space := asciiSpace[c]
		words += int(inSpace &^ space)
		inSpace = space
	}
	return words
}

func countWordsUnicode(text string) int {
	words := 0
	inSpace := true
	for _, r := range text {
		space := unicode.IsSpace(r)
		if inSpace && !space {
			words++
		}
		inSpace = space
	}
	return words
}

// messageFraming is the per-message overhead chat APIs bill on top of the
// content's tokens.
const messageFraming = 4

// CountMessageTokens estimates the prompt tokens of a chat request,
// including a small per-message framing overhead the way chat APIs bill.
func CountMessageTokens(msgs []Message) int {
	total := 0
	for _, m := range msgs {
		total += CountTokens(m.Content) + messageFraming
	}
	return total
}

// SingleMessageTokens is CountMessageTokens of a one-message request whose
// content is n bytes long and holds words whitespace-delimited words
// (len(strings.Fields(content))), for a caller that has counted the words on
// a pass over the content of its own.
func SingleMessageTokens(n, words int) int {
	return tokensOf(n, words) + messageFraming
}
