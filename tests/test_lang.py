"""Shape language: lexer, parser, serializer, round-trips, fuzzing."""

import math
import struct

import numpy as np
import pytest

from shapefield.fields import Equivalence, Trim
from shapefield.lang import (
    ParseError,
    SemanticError,
    ShapeLangError,
    format_number,
    parse,
    serialize,
    tokenize,
)

PACMAN_SRC = """\
# pac-man: two mouth segments joined with a trimmed arc (illustrative)
s1 = segment(p1=(0, 0), p2=(0.6495, 0.375));
s2 = segment(p1=(0, 0), p2=(0.6495, -0.375));
arc = trim(circle(c=(0, 0), r=0.75), halfplane(o=(0.6495, 0), n=(-1, 0)));
field = requiv(m=2, s1, s2, arc);
"""


class TestTokenize:
    def test_circle_call(self):
        toks = tokenize("circle(c=(0,0), r=0.75)")
        assert [(t.kind, t.value) for t in toks] == [
            ("ident", "circle"),
            ("lparen", "("),
            ("ident", "c"),
            ("eq", "="),
            ("lparen", "("),
            ("number", 0.0),
            ("comma", ","),
            ("number", 0.0),
            ("rparen", ")"),
            ("comma", ","),
            ("ident", "r"),
            ("eq", "="),
            ("number", 0.75),
            ("rparen", ")"),
        ]

    def test_empty_source(self):
        assert tokenize("") == []

    def test_illegal_numeral_position(self):
        with pytest.raises(ParseError) as err:
            tokenize("circle(r=0x5)")
        assert (err.value.line, err.value.col) == (1, 11)
        assert "x" in err.value.message

    def test_illegal_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("a = $;")
        assert (err.value.line, err.value.col) == (1, 5)

    def test_comments_and_newlines_skipped(self):
        toks = tokenize("# header\n a \n = # trailing\n 1.5 ;")
        assert [t.kind for t in toks] == ["ident", "eq", "number", "semi"]
        assert toks[0].line == 2

    def test_exponents_and_signs(self):
        toks = tokenize("x = -1.5e-3;")
        assert toks[2].value == -1.5e-3

    def test_malformed_exponent(self):
        with pytest.raises(ParseError):
            tokenize("x = 1e;")

    def test_number_error_positions(self):
        cases = [
            ("x = 1e;", 7, "malformed exponent"),
            ("x = 1e", 6, "malformed exponent"),  # clamped to the last character
            ("x = 1e+;", 8, "malformed exponent"),
            ("x = 1.2.3;", 8, "invalid character '.'"),
            ("x = .;", 5, "malformed number"),
            ("x = +a;", 5, "illegal character '+'"),
        ]
        for src, col, message in cases:
            with pytest.raises(ParseError) as err:
                tokenize(src)
            assert (err.value.line, err.value.col) == (1, col), src
            assert message in err.value.message, src


class TestParse:
    def test_pacman_structure(self):
        prog = parse(PACMAN_SRC)
        root = prog.field_expr()
        assert isinstance(root, Equivalence)
        assert len(root.children()) == 3
        assert isinstance(root.children()[2], Trim)
        assert prog.order == ("s1", "s2", "arc", "field")

    def test_single_circle(self):
        prog = parse("field = circle(c=(0,0), r=1);")
        assert prog.has_field and not prog.has_morph
        assert list(prog.definitions) == ["field"]

    def test_requiv_m_zero_is_semantic_error(self):
        with pytest.raises(SemanticError):
            parse("field = requiv(m=0, circle(c=(0,0),r=1), circle(c=(1,0),r=1));")

    def test_unknown_name(self):
        with pytest.raises(SemanticError) as err:
            parse("field = union(nope, circle(c=(0,0),r=1));")
        assert "nope" in err.value.message

    def test_use_before_definition(self):
        with pytest.raises(SemanticError):
            parse("field = later;\nlater = circle(c=(0,0), r=1);")

    def test_duplicate_definition(self):
        with pytest.raises(SemanticError):
            parse("a = circle(c=(0,0),r=1);\na = circle(c=(0,0),r=2);\nfield = a;")

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(SemanticError):
            parse("field = union(circle(c=(0,0),r=1), sphere(c=(0,0,0),r=1));")

    def test_missing_export(self):
        with pytest.raises(SemanticError) as err:
            parse("a = circle(c=(0,0), r=1);")
        assert "export" in err.value.message

    def test_two_exports_rejected(self):
        with pytest.raises(SemanticError):
            parse(
                "a = circle(c=(0,0),r=1);\nb = circle(c=(1,0),r=1);\n"
                "field = a;\nmorph(initial=a, final=b, p=1);"
            )

    def test_second_morph_export_rejected(self):
        src = (
            "a = circle(c=(0,0),r=1);\nb = circle(c=(1,0),r=1);\n"
            "morph(initial=a, final=b, p=1);\nmorph(initial=b, final=a, p=1);"
        )
        with pytest.raises(SemanticError) as err:
            parse(src)
        assert (err.value.line, err.value.col) == (4, 1)
        assert "duplicate morph export" in err.value.message

    def test_field_binding_after_a_morph_rejected(self):
        src = (
            "a = circle(c=(0,0),r=1);\nb = circle(c=(1,0),r=1);\n"
            "morph(initial=a, final=b, p=1);\nfield = a;"
        )
        with pytest.raises(SemanticError) as err:
            parse(src)
        assert (err.value.line, err.value.col) == (4, 1)
        assert "already exports a morph" in err.value.message

    @pytest.mark.parametrize("m", ["2.5", "1e-3"])
    def test_non_integer_requiv_order_rejected(self, m):
        src = f"field = requiv(m={m}, circle(c=(0,0),r=1), circle(c=(1,0),r=1));"
        with pytest.raises(SemanticError) as err:
            parse(src)
        assert (err.value.line, err.value.col) == (1, 18)
        assert "m must be an integer" in err.value.message

    def test_reserved_names_rejected(self):
        with pytest.raises(SemanticError):
            parse("circle = circle(c=(0,0), r=1);\nfield = circle;")

    def test_degenerate_segment_rejected(self):
        with pytest.raises(SemanticError) as err:
            parse("field = segment(p1=(1,1), p2=(1,1));")
        assert "degenerate-segment" in err.value.message

    def test_s_above_one_parses(self):
        # outside the well-behaved range, not invalid: the node clamps its
        # radicand at run time, as a morph with s > 1 does
        prog = parse(
            "a = circle(c=(0, 0), r=0.5);\nb = circle(c=(0.1, 0), r=0.5);\n"
            "field = inter(a, b, s=3);"
        )
        assert prog.field_expr().s == 3.0

    def test_non_unit_normal_rejected(self):
        with pytest.raises(SemanticError):
            parse("field = halfplane(o=(0,0), n=(1,1));")

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(SemanticError):
            parse("field = circle(c=(0,0), r=-2);")

    def test_morph_export(self):
        prog = parse(
            "a = circle(c=(0,0), r=0.75);\nb = circle(c=(0.4,0), r=0.6);\n"
            "morph(initial=a, final=b, p=0.5);"
        )
        assert prog.has_morph and not prog.has_field
        sched = prog.morph_schedule()
        assert sched.p == 0.5 and sched.s == 0.0
        with pytest.raises(SemanticError):
            prog.field_expr()

    def test_morph_requires_rate(self):
        for stmt in ("morph(initial=a, final=b);", "morph(initial=a, final=b, p=1, s=1e309);"):
            with pytest.raises(SemanticError):
                parse("a = circle(c=(0,0),r=1);\nb = circle(c=(1,0),r=1);\n" + stmt)

    def test_duplicate_morph_keyword_rejected(self):
        src = (
            "a = circle(c=(0,0),r=1);\nb = circle(c=(1,0),r=1);\n"
            "morph(initial=a, final=b, p=1, p=5, initial=b);"
        )
        with pytest.raises(SemanticError) as err:
            parse(src)
        assert (err.value.line, err.value.col) == (3, 32)
        assert "duplicate argument 'p'" in err.value.message

    def test_sphere_normalized_flag(self):
        prog = parse("field = sphere(c=(0,0,0), r=1, normalized=false);")
        assert prog.field_expr().normalized is False
        prog = parse("field = sphere(c=(0,0,0), r=1);")
        assert prog.field_expr().normalized is True

    def test_compiled_programs_validate_clean(self):
        from shapefield.fields import validate

        for name, expr in parse(PACMAN_SRC).definitions.items():
            assert validate(expr) == [], name

    def test_error_position_points_at_bad_token(self):
        src = "a = circle(c=(0,0), r=1);\nfield = union(a a);"
        with pytest.raises(ParseError) as err:
            parse(src)
        assert err.value.line == 2
        lines = src.split("\n")
        assert 1 <= err.value.col <= len(lines[1]) + 1


class TestSerialize:
    def test_canonical_single_circle(self):
        prog = parse("field=circle(r=1,c=(0,0));")
        assert serialize(prog) == "field = circle(c=(0, 0), r=1);\n"

    def test_pacman_round_trip(self):
        prog = parse(PACMAN_SRC)
        assert parse(serialize(prog)) == prog

    def test_morph_round_trip(self):
        prog = parse(
            "a = circle(c=(0,0), r=0.75);\nb = circle(c=(0.4,0), r=0.6);\n"
            "morph(initial=a, final=b, p=0.25, s=0.5);"
        )
        assert parse(serialize(prog)) == prog

    def test_defaults_are_materialized(self):
        a = parse("x = circle(c=(0,0),r=1);\ny = circle(c=(1,0),r=1);\nfield = union(x, y);")
        b = parse("x = circle(c=(0,0),r=1);\ny = circle(c=(1,0),r=1);\nfield = union(x, y, s=0);")
        assert a == b
        assert serialize(a) == serialize(b)


class TestNumberFormat:
    def test_integral_floats_print_bare(self):
        assert format_number(1.0) == "1"
        assert format_number(-0.0) == "-0"
        assert format_number(0.75) == "0.75"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_number(float("nan"))
        with pytest.raises(ValueError):
            format_number(float("inf"))

    def test_thousand_random_doubles_round_trip_bit_exact(self, rng):
        special = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            2.0 ** 53,
            2.0 ** 53 + 2.0,
            1e16,
            1e17,
            1e18,
            5e-324,
            2.2250738585072014e-308,
            1.7976931348623157e308,
        ]
        vals = list(special)
        exps = rng.uniform(-300, 300, 1000 - len(special))
        vals.extend(np.sign(rng.standard_normal()) * 10.0 ** e * rng.uniform(1, 10) for e in exps)
        for v in vals:
            v = float(v)
            text = format_number(v)
            mantissa = text.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa) <= 17, text  # at most 17 significant digits
            (tok,) = tokenize(text)
            assert struct.pack("<d", tok.value) == struct.pack("<d", v), (v, text)


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

class _ProgramFuzzer:
    """Seeded generator of random valid shape programs as source text."""

    def __init__(self, rng):
        self.rng = rng

    def number(self, positive=False):
        r = self.rng
        pick = r.integers(0, 4)
        if pick == 0:
            v = float(r.integers(0 if positive else -20, 21))
            if positive and v == 0:
                v = 1.0
        elif pick == 1:
            v = round(float(r.uniform(0.01 if positive else -10, 10)), 4)
        else:
            v = float(r.uniform(0.001 if positive else -1, 1) * 10.0 ** r.integers(-3, 4))
        return abs(v) if positive else v

    def point(self, dim):
        return tuple(self.number() for _ in range(dim))

    def unit(self, dim):
        v = self.rng.normal(size=dim)
        n = np.linalg.norm(v)
        if n < 1e-6:
            v = np.eye(dim)[0]
            n = 1.0
        return tuple(float(c) for c in v / n)

    def _fmt(self, v):
        if isinstance(v, tuple):
            return "(" + ",".join(format_number(c) for c in v) + ")"
        if isinstance(v, bool):
            return "true" if v else "false"
        return format_number(v)

    def leaf(self, dim):
        r = self.rng
        if dim == 2:
            kind = r.choice(["circle", "segment", "halfplane"])
            if kind == "circle":
                return f"circle(c={self._fmt(self.point(2))}, r={self._fmt(self.number(positive=True))})"
            if kind == "segment":
                p1 = self.point(2)
                p2 = self.point(2)
                while math.dist(p1, p2) < 1e-6:
                    p2 = self.point(2)
                return f"segment(p1={self._fmt(p1)}, p2={self._fmt(p2)})"
            return f"halfplane(o={self._fmt(self.point(2))}, n={self._fmt(self.unit(2))})"
        kind = r.choice(["sphere", "plane"])
        if kind == "sphere":
            flag = r.integers(0, 3)
            extra = "" if flag == 0 else f", normalized={'true' if flag == 1 else 'false'}"
            return (
                f"sphere(c={self._fmt(self.point(3))}, "
                f"r={self._fmt(self.number(positive=True))}{extra})"
            )
        return f"plane(o={self._fmt(self.point(3))}, n={self._fmt(self.unit(3))})"

    def expr(self, dim, depth, names):
        r = self.rng
        if depth <= 0 or r.random() < 0.35:
            if names and r.random() < 0.4:
                return str(r.choice(names))
            return self.leaf(dim)
        op = r.choice(["neg", "union", "inter", "requiv", "trim"])
        sub = lambda: self.expr(dim, depth - 1, names)
        if op == "neg":
            return f"neg({sub()})"
        if op in ("union", "inter"):
            s = "" if r.random() < 0.5 else f", s={self._fmt(round(float(r.uniform(0, 1)), 3))}"
            return f"{op}({sub()}, {sub()}{s})"
        if op == "requiv":
            k = int(r.integers(2, 5))
            kids = ", ".join(sub() for _ in range(k))
            m = "" if r.random() < 0.3 else f"m={int(r.integers(1, 5))}, "
            return f"requiv({m}{kids})"
        return f"trim({sub()}, {sub()})"

    def program(self):
        r = self.rng
        dim = int(r.choice([2, 3]))
        n_defs = int(r.integers(0, 5))
        names = []
        lines = []
        for k in range(n_defs):
            name = f"d{k}"
            lines.append(f"{name} = {self.expr(dim, int(r.integers(0, 3)), names)};")
            names.append(name)
        if r.random() < 0.2 and len(names) >= 2:
            a, b = r.choice(names, size=2)
            lines.append(
                f"morph(initial={a}, final={b}, p={self._fmt(self.number(positive=True))});"
            )
        else:
            lines.append(f"field = {self.expr(dim, int(r.integers(0, 3)), names)};")
        text = "\n".join(lines) + "\n"
        return self._salt(text)

    def _salt(self, text):
        """Randomize formatting: extra spaces, blank lines, comments."""
        r = self.rng
        out = []
        for line in text.split("\n"):
            if r.random() < 0.15:
                out.append(f"# noise {int(r.integers(0, 999))}")
            if r.random() < 0.2:
                line = line.replace(" = ", "   =  ", 1)
            if r.random() < 0.2:
                line = line.replace(", ", " ,  ")
            out.append(line)
        return "\n".join(out)


class TestFuzz:
    N_VALID = 1000

    def test_valid_programs_round_trip(self):
        fuzz = _ProgramFuzzer(np.random.default_rng(7))
        for k in range(self.N_VALID):
            src = fuzz.program()
            try:
                prog = parse(src)
            except SemanticError:
                # rare: random morph picked two defs of different dimension
                continue
            canon = serialize(prog)
            again = parse(canon)
            assert again == prog, f"case {k}:\n{src}\n---\n{canon}"
            assert serialize(again) == canon

    def test_invalid_mutations_give_positioned_errors(self):
        fuzz = _ProgramFuzzer(np.random.default_rng(99))
        r = np.random.default_rng(1234)
        crashes = 0
        errored = 0
        for k in range(400):
            src = fuzz.program()
            mode = k % 4
            if mode == 0:  # illegal character
                pos = int(r.integers(0, len(src)))
                src = src[:pos] + r.choice(list("$@%!?")) + src[pos:]
            elif mode == 1:  # truncation
                src = src[: int(r.integers(0, len(src)))]
            elif mode == 2:  # delete a character
                pos = int(r.integers(0, len(src)))
                src = src[:pos] + src[pos + 1 :]
            else:  # undefined reference
                src = src.replace("field = ", "field = union(ghost_name, ", 1).replace(
                    ";", ");", 1
                ) if "field = " in src else src + "\nx = ghost;"
            try:
                parse(src)
            except ShapeLangError as err:
                errored += 1
                lines = src.split("\n")
                assert 1 <= err.line <= max(1, len(lines))
                line_text = lines[err.line - 1] if lines else ""
                assert 1 <= err.col <= len(line_text) + 1, (err, src)
            except Exception as exc:  # pragma: no cover - must never happen
                crashes += 1
                raise AssertionError(f"non-language exception {exc!r} for:\n{src}")
        assert crashes == 0
        assert errored > 100  # the mutations do exercise the error paths
