"""wee: a minimal workflow execution engine.

Parse `.wee` workflow descriptions, execute them with concurrent branches
over a supervised context, delegate call activities to pluggable handler
wrappers, and check control-flow pattern coverage with the bundled harness.
"""

from .context import ContextStore
from .dsl import Diagnostic, ParseError, WorkflowAst, parse, positions, pretty, validate
from .engine import EngineError, RunOptions, WorkflowInstance
from .events import EventLog, EventRecord, FixedClock, read_jsonl
from .expressions import EvalError, Value, apply_assignments, eval_expr
from .handlers import (
    Failure,
    HandlerCall,
    HandlerOutcome,
    HandlerWrapper,
    HttpHandler,
    Jump,
    JumpHandler,
    MockHandler,
    Passthrough,
    RecursiveHandler,
    Result,
    TriggerHandler,
)

__version__ = "0.1.0"

__all__ = [
    "ContextStore",
    "Diagnostic",
    "EngineError",
    "EvalError",
    "EventLog",
    "EventRecord",
    "Failure",
    "FixedClock",
    "HandlerCall",
    "HandlerOutcome",
    "HandlerWrapper",
    "HttpHandler",
    "Jump",
    "JumpHandler",
    "MockHandler",
    "ParseError",
    "Passthrough",
    "RecursiveHandler",
    "Result",
    "RunOptions",
    "TriggerHandler",
    "Value",
    "WorkflowAst",
    "WorkflowInstance",
    "apply_assignments",
    "eval_expr",
    "parse",
    "positions",
    "pretty",
    "read_jsonl",
    "validate",
]
