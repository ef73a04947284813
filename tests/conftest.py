import pytest

import rcbev.backbone
import rcbev.nn


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


@pytest.fixture
def conv_pixels(monkeypatch):
    """The number of pixels each real rcbev.nn.conv3x3 call computes while the
    test runs, in call order."""
    sizes = []

    def counted(x, _fn=rcbev.nn._conv_pixels):
        pixels, background = _fn(x)
        sizes.append(len(pixels))
        return pixels, background

    monkeypatch.setattr(rcbev.nn, "_conv_pixels", counted)
    return sizes
