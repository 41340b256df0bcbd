import pytest

from stpose.attention import SteBlock


@pytest.fixture
def force_bypass(monkeypatch):
    """``force_bypass(encoder, flag)``: from then on every block of the
    encoder runs with its temporal bypass set to ``flag``, whatever the clip
    length; the encoder itself bypasses exactly when a clip has one frame."""
    def force(encoder, flag):
        for block in encoder.blocks:
            monkeypatch.setattr(
                block, "attend",
                lambda x, bypass_temporal=False, block=block: SteBlock.attend(block, x, flag))
    return force
