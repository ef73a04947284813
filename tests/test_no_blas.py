"""The product path never calls BLAS. Every contraction goes through one of
nn's three kernels (contract, product, weighted_sum), each one
np.einsum(optimize=False), so nn.py is the only product module that calls
np.einsum, and it does so exactly three times. Checked on the source, so a
BLAS call or a stray einsum that no test happens to reach still fails here.
Only the references (oracles.py), the scaling bench's dense comparator among
them, may use BLAS or einsum."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rcbev"
EXEMPT = {"oracles.py"}
EINSUM_HOME = "nn.py"
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "outer"}
PRODUCT = sorted(p for p in SRC.glob("*.py") if p.name not in EXEMPT)


def call_name(node: ast.Call):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def blas_uses(source: str, filename: str) -> list[str]:
    """Line-numbered descriptions of every BLAS-reaching construct, and of
    every einsum outside nn.py, in ``source`` read as product file ``filename``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @ operator")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(f"line {node.lineno}: linalg")
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            found.append(f"line {node.lineno}: import from {node.module}")
        elif isinstance(node, ast.Call):
            name = call_name(node)
            if name in BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}()")
            elif name == "einsum" and filename != EINSUM_HOME:
                found.append(f"line {node.lineno}: einsum outside {EINSUM_HOME}")
            elif name == "einsum" and not any(
                kw.arg == "optimize" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in node.keywords
            ):
                found.append(f"line {node.lineno}: einsum without optimize=False")
    return found


@pytest.mark.parametrize("path", PRODUCT, ids=lambda p: p.name)
def test_product_module_has_no_blas(path):
    assert blas_uses(path.read_text(), path.name) == []


def test_nn_has_exactly_three_einsum_calls():
    tree = ast.parse((SRC / EINSUM_HOME).read_text())
    assert sum(isinstance(n, ast.Call) and call_name(n) == "einsum" for n in ast.walk(tree)) == 3


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
    for filename in (EINSUM_HOME, "fusion.py"):
        assert len(blas_uses(snippet, filename)) == 1, filename


FIXED_ORDER_EINSUM = "y = np.einsum('ij,jc->ic', w, v, optimize=False)"


def test_guard_accepts_fixed_order_einsum():
    assert blas_uses(FIXED_ORDER_EINSUM, EINSUM_HOME) == []


@pytest.mark.parametrize("path", [p for p in PRODUCT if p.name != EINSUM_HOME], ids=lambda p: p.name)
def test_guard_rejects_einsum_outside_nn(path):
    assert blas_uses(FIXED_ORDER_EINSUM, path.name) == [f"line 1: einsum outside {EINSUM_HOME}"]
