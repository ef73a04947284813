"""The product path never calls BLAS: every contraction is a fixed-order
np.einsum(optimize=False). Checked on the source, so a BLAS call that no test
happens to reach still fails here. Only the references (oracles.py), the
scaling bench's dense comparator among them, may use BLAS."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rcbev"
EXEMPT = {"oracles.py"}
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "outer"}


def blas_uses(source: str) -> list[str]:
    """Line-numbered descriptions of every BLAS-reaching construct in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @ operator")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"line {node.lineno}: linalg")
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            found.append(f"line {node.lineno}: import from {node.module}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}()")
            elif name == "einsum" and not any(
                kw.arg == "optimize" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in node.keywords
            ):
                found.append(f"line {node.lineno}: einsum without optimize=False")
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name not in EXEMPT), ids=lambda p: p.name
)
def test_product_module_has_no_blas(path):
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "snippet",
    [
        "y = weights @ values",
        "y @= w",
        "y = np.dot(a, b)",
        "y = a.dot(b)",
        "y = np.matmul(a, b)",
        "y = np.tensordot(a, b, 1)",
        "y = np.outer(a, b)",
        "y = np.inner(a, b)",
        "y = np.vdot(a, b)",
        "y = np.linalg.norm(a)",
        "from numpy.linalg import norm",
        "y = np.einsum('ij,jk->ik', a, b)",
        "y = np.einsum('ij,jk->ik', a, b, optimize=True)",
    ],
)
def test_guard_rejects_blas(snippet):
    assert len(blas_uses(snippet)) == 1


def test_guard_accepts_fixed_order_einsum():
    assert blas_uses("y = np.einsum('ij,jc->ic', w, v, optimize=False)") == []
