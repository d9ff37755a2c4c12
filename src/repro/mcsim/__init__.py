"""Pin-style trace capture and McSimA+-style replay (Section 3.3's second
monitoring solution)."""

from .pin import CaptureConfig, PinTool, TraceRecord
from .replay import McSimReplayer, ReplayReport
from .service import ReplayService, ServiceStats

__all__ = [
    "CaptureConfig",
    "McSimReplayer",
    "PinTool",
    "ReplayReport",
    "ReplayService",
    "ServiceStats",
    "TraceRecord",
]
