import pytest

import rcbev.backbone


@pytest.fixture
def backbone_calls(monkeypatch):
    """Counts of the real rcbev.backbone.inject and extract calls made while
    the test runs."""
    calls = {"inject": 0, "extract": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(rcbev.backbone, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(rcbev.backbone, name, counted)
    return calls
