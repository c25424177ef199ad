"""Tests for the tokenizer."""

import json
import os
import subprocess
import sys

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog.tokenizer import Token, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty(self):
        assert kinds("") == ["eof"]

    def test_atom(self):
        tokens = tokenize("foo")
        assert tokens[0].kind == "atom"
        assert tokens[0].value == "foo"

    def test_variable(self):
        assert tokenize("Foo")[0].kind == "var"

    def test_underscore_variable(self):
        assert tokenize("_foo")[0].kind == "var"
        assert tokenize("_")[0].kind == "var"

    def test_integer(self):
        token = tokenize("42")[0]
        assert token.kind == "int"
        assert token.value == 42

    def test_float(self):
        token = tokenize("3.25")[0]
        assert token.kind == "float"
        assert token.value == 3.25

    def test_float_with_exponent(self):
        assert tokenize("2.0e3")[0].value == 2000.0

    def test_integer_then_end(self):
        assert kinds("42.") == ["int", "end", "eof"]

    def test_punct(self):
        assert values("( ) [ ] { } , |") == list("()[]{},|")

    def test_end_token(self):
        assert kinds("foo.") == ["atom", "end", "eof"]

    def test_dot_in_symbol(self):
        # =.. is one symbolic atom, not an end token.
        token = tokenize("=..")[0]
        assert token.kind == "atom"
        assert token.value == "=.."


class TestRadixAndChar:
    def test_hex(self):
        assert tokenize("0xff")[0].value == 255

    def test_octal(self):
        assert tokenize("0o17")[0].value == 15

    def test_binary(self):
        assert tokenize("0b101")[0].value == 5

    def test_char_code(self):
        assert tokenize("0'a")[0].value == ord("a")

    def test_char_code_escape(self):
        assert tokenize(r"0'\n")[0].value == ord("\n")

    def test_missing_radix_digits(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("0x")


class TestQuoted:
    def test_quoted_atom(self):
        token = tokenize("'hello world'")[0]
        assert token.kind == "atom"
        assert token.value == "hello world"

    def test_quoted_atom_escape(self):
        assert tokenize(r"'a\nb'")[0].value == "a\nb"

    def test_doubled_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_string(self):
        token = tokenize('"abc"')[0]
        assert token.kind == "string"
        assert token.value == "abc"

    def test_unterminated_quote(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("'abc")


class TestSymbolicAtoms:
    def test_operators_lump(self):
        assert tokenize(":-")[0].value == ":-"

    def test_arrow(self):
        assert tokenize("-->")[0].value == "-->"

    def test_solo_chars(self):
        assert values("! ;") == ["!", ";"]

    def test_comparison(self):
        assert tokenize("=<")[0].value == "=<"

    def test_symbol_split_by_space(self):
        assert values("= <") == ["=", "<"]


class TestCommentsAndLayout:
    def test_line_comment(self):
        assert kinds("foo % bar\nbaz.") == ["atom", "atom", "end", "eof"]

    def test_block_comment(self):
        assert kinds("foo /* bar */ baz") == ["atom", "atom", "eof"]

    def test_nested_like_block(self):
        assert kinds("/* a * b */ x") == ["atom", "eof"]

    def test_unterminated_block(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("/* oops")

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)


class TestFunctorFlag:
    def test_functor_true(self):
        assert tokenize("f(")[0].functor is True

    def test_functor_false_with_space(self):
        assert tokenize("f (")[0].functor is False

    def test_quoted_functor(self):
        assert tokenize("'f g'(x)")[0].functor is True


def _error_in_child(text):
    """Tokenize ``text`` in a child process and return the syntax
    error's (message, line, column), or None.  A scanner that never
    returns then fails the test on the timeout instead of hanging the
    suite."""
    script = (
        "import json, sys\n"
        "from repro.errors import PrologSyntaxError\n"
        "from repro.prolog.tokenizer import tokenize\n"
        "try:\n"
        "    tokenize(sys.stdin.read())\n"
        "    print('null')\n"
        "except PrologSyntaxError as exc:\n"
        "    print(json.dumps([str(exc), exc.line, exc.column]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script], input=text, capture_output=True,
        text=True, env=env, timeout=30, check=True,
    )
    found = json.loads(completed.stdout)
    return None if found is None else tuple(found)


class TestLexicalErrors:
    """Malformed escapes and numbers are syntax errors with a position,
    never a hang or a ``ValueError``."""

    @pytest.mark.parametrize("text", ["p('\\x", "0'\\x41"])
    def test_hex_escape_at_end_of_input_is_unterminated(self, text):
        message, line, column = _error_in_child(text)
        assert message.startswith("unterminated quoted token")
        assert (line, column) == (1, len(text) + 1)

    def test_hex_escape_without_digits(self):
        with pytest.raises(PrologSyntaxError) as info:
            tokenize("a('\\xg').")
        assert (info.value.line, info.value.column) == (1, 6)

    def test_hex_escape_beyond_unicode(self):
        with pytest.raises(PrologSyntaxError) as info:
            tokenize("a('\\x110000\\').")
        assert (info.value.line, info.value.column) == (1, 12)

    @pytest.mark.parametrize(
        "text,column", [("x(²).", 3), ("X = 1².", 6), ("X = 1.5E-①.", 10)],
    )
    def test_digit_int_rejects_is_a_syntax_error(self, text, column):
        # ``str.isdigit`` holds for superscripts and circled digits;
        # ``int`` and ``float`` reject them.
        with pytest.raises(PrologSyntaxError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, column)

    def test_decimal_digits_outside_ascii_still_read_as_numbers(self):
        assert values("٣٤ 1.٥ a² été Été 1e²") == [
            34, 1.5, "a²", "été", "Été", 1, "e²"
        ]
        assert kinds("été Été") == ["atom", "var", "eof"]

    def test_integer_beyond_the_int_digit_limit(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("X = " + "9" * 5000 + ".")


class TestPositionsAfterNumbers:
    def test_e_that_is_not_an_exponent_keeps_columns(self):
        tokens = tokenize("X is 2ex, Y = a.")
        assert [(t.value, t.column) for t in tokens[:-1]] == [
            ("X", 1), ("is", 3), (2, 6), ("ex", 7), (",", 9), ("Y", 11),
            ("=", 13), ("a", 15), (".", 16),
        ]

    def test_signed_e_that_is_not_an_exponent_keeps_columns(self):
        tokens = tokenize("X is 2e+x, 3E-.")
        assert [(t.value, t.column) for t in tokens[:-1]] == [
            ("X", 1), ("is", 3), (2, 6), ("e", 7), ("+", 8), ("x", 9),
            (",", 10), (3, 12), ("E", 13), ("-.", 14),
        ]

    def test_newlines_inside_quoted_tokens_move_lines(self):
        tokens = tokenize("'a\nb' \"c\n\nd\" 0'\n x")
        assert [(t.line, t.column) for t in tokens] == [
            (1, 1), (2, 4), (4, 4), (5, 2), (5, 3),
        ]
