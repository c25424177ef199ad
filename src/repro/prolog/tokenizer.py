"""Tokenizer for Prolog source text.

Produces a stream of :class:`Token` objects for the operator-precedence
parser.  The token classes follow the standard Prolog lexical conventions:

* unquoted atoms (``foo``), quoted atoms (``'hello world'``), and symbolic
  atoms made of the symbol characters ``+-*/\\^<>=~:.?@#&$``;
* variables (``X``, ``_foo``, ``_``);
* integers (decimal, ``0x``/``0o``/``0b`` radix forms, ``0'c`` character
  codes) and floats (``1.5``, ``2.0e3``);
* double-quoted strings (tokenized whole; the parser turns them into code
  lists);
* punctuation ``( ) [ ] { } , |`` and the clause-terminating end token
  ``.`` (a dot followed by layout or end of input);
* ``%`` line comments and ``/* ... */`` block comments, which are skipped.

An atom token directly followed by ``(`` (no layout between) is marked
``functor=True`` — the parser needs that distinction to tell ``f(a)`` from
``f (a)`` per the standard.

Scanning works the way CPython's own ``tokenize`` module does: one
compiled alternation (:data:`_TOKEN`) is matched at the current offset,
and the group that matched says what the token is.  Line and column
come from the match offsets, counting the newlines inside layout and
quoted tokens.  Quoted tokens and ``0'c`` character codes take a small
procedural path (:func:`_scan_quoted`, :func:`_scan_char`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Tuple, Union

from ..errors import PrologSyntaxError


@dataclass
class Token:
    """One lexical token.

    ``kind`` is one of ``atom``, ``var``, ``int``, ``float``, ``string``,
    ``punct``, ``end`` and ``eof``; ``value`` holds the text or number.
    """

    kind: str
    value: Union[str, int, float]
    line: int
    column: int
    functor: bool = field(default=False)

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    "\\": "\\",
    "'": "'",
    '"': '"',
    "`": "`",
    "0": "\0",
}

#: Layout (group 1) and then one token, whose group number the loop in
#: :func:`tokenize` reads from ``lastindex``.  Alternatives are tried in
#: order: the end dot and an unterminated ``/*`` before symbol atoms,
#: ``0'`` and radix forms before decimals.  ``\d`` is ``str.isdecimal``
#: and ``\w`` is ``str.isalnum`` or ``_``; a letter outside ASCII takes
#: the last alternative and is classified there.
_TOKEN = re.compile(
    r"((?:[ \t\r\n]+|%[^\n]*|/\*.*?\*/)*)"
    r"(?:([a-z]\w*)"                                  # 2 name atom
    r"|([A-Z_]\w*)"                                   # 3 variable
    r"|([()\[\]{},|])"                                # 4 punctuation
    r"|(\.)(?=[ \t\r\n%]|\Z)"                         # 5 end
    r"|(/\*)"                                         # 6 unterminated comment
    r"|([-+*/\\^<>=~:.?@#&$]+)"                       # 7 symbol atom
    r"|([!;])"                                        # 8 solo atom
    r"|(0')"                                          # 9 character code
    r"|0x([0-9a-fA-F]+)|0o([0-7]+)|0b([01]+)"         # 10-12 radix
    r"|(0[xob])"                                      # 13 radix, no digits
    r"|(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"              # 14 decimal number
    r"|(['\"])"                                       # 15 quoted atom, string
    r"|(\Z)"                                          # 16 end of input
    r"|(.))",                                         # 17 anything else
    re.S,
)
_RADIX = {10: 16, 11: 8, 12: 2}
_NAME = re.compile(r"\w*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")


def _error(text: str, offset: int, message: str) -> PrologSyntaxError:
    """A syntax error at character ``offset`` of ``text``."""
    line = text.count("\n", 0, offset) + 1
    return PrologSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text`` into a list ending with an ``eof`` token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    # ``line`` counts the newlines before offset ``counted``; a quoted
    # token rewinds it to the token's start, so the next token counts
    # the newlines inside it.
    pos = line_start = counted = 0
    line = 1
    while True:
        found = match(text, pos)
        start = found.end(1)
        if start != counted:
            newlines = text.count("\n", counted, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", counted, start) + 1
        column = start - line_start + 1
        kind = found.lastindex
        pos = counted = found.end()
        if kind == 2:
            append(Token("atom", found[2], line, column, text.startswith("(", pos)))
        elif kind == 4:
            append(Token("punct", found[4], line, column))
        elif kind == 3:
            append(Token("var", found[3], line, column))
        elif kind == 7 or kind == 8:
            append(Token("atom", found[kind], line, column, text.startswith("(", pos)))
        elif kind == 5:
            append(Token("end", ".", line, column))
        elif kind == 14:
            number = found[14]
            if number.isdecimal():
                append(Token("int", _integer(text, start, number), line, column))
            else:
                append(Token("float", float(number), line, column))
        elif kind == 16:
            append(Token("eof", "", line, column))
            return tokens
        elif kind in _RADIX:
            append(Token("int", int(found[kind], _RADIX[kind]), line, column))
        elif kind == 9:
            char, pos = _scan_char(text, pos, "'")
            counted = start
            append(Token("int", ord(char), line, column))
        elif kind == 15:
            value, pos = _scan_quoted(text, pos, found[15])
            counted = start
            if found[15] == '"':
                append(Token("string", value, line, column))
            else:
                append(Token("atom", value, line, column, text.startswith("(", pos)))
        elif kind == 13:
            raise _error(text, pos, "missing digits after radix prefix")
        elif kind == 6:
            raise _error(text, len(text), "unterminated block comment")
        else:
            token, pos = _scan_other(text, start, line, column)
            append(token)


def _integer(text: str, start: int, digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # longer than ``int``'s digit limit
        raise _error(text, start, f"bad integer: {exc}") from None


def _scan_other(text: str, start: int, line: int, column: int) -> Tuple[Token, int]:
    """A token starting with a character no ASCII alternative matched,
    and its end: a name if the character is a letter, else an error."""
    ch = text[start]
    if not ch.isalpha():
        raise _error(text, start, f"unexpected character {ch!r}")
    end = _NAME.match(text, start).end()
    if ch.isupper():
        return Token("var", text[start:end], line, column), end
    return Token("atom", text[start:end], line, column, text.startswith("(", end)), end


def _scan_char(text: str, pos: int, quote: str) -> Tuple[str, int]:
    """One (possibly escaped) character of a quoted token at ``pos``:
    the character and the offset after it."""
    ch = text[pos:pos + 1]
    if not ch:
        raise _error(text, pos, "unterminated quoted token")
    if ch == "\\":
        esc = text[pos + 1:pos + 2]
        if esc == "x":
            end = _HEX_DIGITS.match(text, pos + 2).end()
            if end == len(text):
                raise _error(text, end, "unterminated quoted token")
            if end == pos + 2:
                raise _error(text, end, "missing digits in \\x escape")
            code = int(text[pos + 2:end], 16)
            if code > 0x10FFFF:
                raise _error(text, end, f"character code {code:#x} out of range")
            return chr(code), end + text.startswith("\\", end)
        if esc in _ESCAPES:
            return _ESCAPES[esc], pos + 2
        raise _error(text, pos + 1, f"unknown escape \\{esc}")
    if ch == quote and text.startswith(quote, pos + 1):
        return quote, pos + 2
    return ch, pos + 1


def _scan_quoted(text: str, pos: int, quote: str) -> Tuple[str, int]:
    """The body of a quoted token whose opening quote ends at ``pos``:
    its text and the offset after the closing quote."""
    chars: List[str] = []
    while True:
        if text.startswith(quote, pos) and not text.startswith(quote, pos + 1):
            return "".join(chars), pos + 1
        char, pos = _scan_char(text, pos, quote)
        chars.append(char)
