"""Command-line front end.

Subcommands: analyze, stability, holcheck, stabilize, subfans. Every
outcome prints one JSON object (deterministic: sorted keys, 2-space
indentation) and every number is exact. Exit codes are part of the
contract: 0 success, 1 document/parse error or malformed command line, 2 fan
validation failure, 3 computation error (condition or degree failures),
with the error code carried in the JSON body.

The command line is read by a small parser driven by the table
`_COMMANDS`: each subcommand's positionals, its options with their
converters, and the options of which exactly one must be given. A long
option is spelled in full (no abbreviations), as `--name value` or
`--name=value`; an option that takes a value takes the next word,
whatever it is; the last of a repeated option wins; `--` ends the
options. Integer lists (`--degrees`, `--increment` and both sides of a
`--free` pin) must match `-?[0-9]+` in ASCII, entry by entry. `-h` or
`--help` anywhere before `--` prints the synopsis of every subcommand as
a JSON body with exit 0. Every other malformed command line is a
USAGE_ERROR body whose message keeps argparse's wording.

`main` runs every job the same way: parse the arguments, load the fan
(`document` refuses one above its size caps), validate it, run the
subcommand on a valid fan or build the violations body on an invalid one,
then print one JSON body stamped with `schema_version`, on success and on
every error. Each subcommand's body is computed by a handler that lives
beside what it runs (`cox.cmd_analyze`, `stability.cmd_stability`,
`holmap.cmd_holcheck`, `holmap.cmd_stabilize`, `census.cmd_subfans`);
`main` reads it from its module only once the fan has validated.
`analyze`, `stability` and `subfans` echo the document's `name` (null
when unnamed) in their success and violation bodies; `holcheck` and
`stabilize` do not. A closed stdout does not change the exit code.

A process ends through `run`: `main()`, then `gc.freeze()`, so the
collections at interpreter exit skip every object the job leaves behind.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

# Each subcommand's handler lives in a module that only some subcommands
# run. The modules are bound as (lazy) modules and read only once the fan
# has validated, so a job compiles and runs only what its subcommand uses.
from . import census, cox, holmap, stability
from . import document as doc_module
from .errors import ToricKitError
from .fans import validate_fan

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_COMPUTE = 3


def _invalid_fan_body(report) -> dict:
    return {
        "valid": False,
        "violations": [
            {
                "axiom": violation.axiom,
                "witness": [sorted(i + 1 for i in group) for group in violation.witness],
            }
            for violation in report.violations
        ],
    }


_INTEGER = re.compile(r"-?[0-9]+")


class _UsageError(Exception):
    """A malformed command line: exit 1 with a USAGE_ERROR body."""


class _HelpRequested(Exception):
    """-h or --help: exit 0 with the synopsis of every subcommand."""


def _strict_int(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _parse_degrees(raw: str) -> tuple[int, ...]:
    try:
        return tuple(_strict_int(part) for part in raw.split(","))
    except ValueError:
        raise _UsageError(f"bad degree list {raw!r}") from None


def _parse_free(raw: str) -> dict:
    pins = {}
    try:
        for part in raw.split(","):
            index, value = part.split("=")
            key = _strict_int(index) - 1
            if key in pins:
                raise _UsageError(f"repeated pin index {key + 1} in {raw!r}")
            pins[key] = _strict_int(value)
    except ValueError:
        raise _UsageError(f"bad pin list {raw!r}") from None
    return pins


class _Command:
    """One subcommand of the grammar.

    `handler` is (module, attribute) of the function that computes the
    body from a valid fan and the parsed arguments. `options` maps each
    long option to (converter, metavar), with converter None for a flag;
    `one_of` names the options of which exactly one must be given (a
    single one is simply required).
    """

    def __init__(self, handler, echo_name, positionals, options=None, one_of=()):
        self.handler = handler
        self.echo_name = echo_name
        self.positionals = positionals
        self.options = options or {}
        self.one_of = one_of

    def synopsis(self, name: str) -> str:
        words = ["torickit", name, *(p.upper() for p in self.positionals)]
        spelled = {
            option: option if metavar is None else f"{option} {metavar}"
            for option, (_, metavar) in self.options.items()
        }
        if self.one_of:
            alternatives = " | ".join(spelled[option] for option in self.one_of)
            words.append(alternatives if len(self.one_of) == 1 else f"({alternatives})")
        words += (f"[{word}]" for option, word in spelled.items() if option not in self.one_of)
        return " ".join(words)


_COMMANDS = {
    "analyze": _Command((cox, "cmd_analyze"), True, ("fan",)),
    "stability": _Command(
        (stability, "cmd_stability"),
        True,
        ("fan",),
        {"--degrees": (_parse_degrees, "D1,D2,..."), "--free": (_parse_free, "I=D,...")},
        one_of=("--degrees", "--free"),
    ),
    "holcheck": _Command((holmap, "cmd_holcheck"), False, ("fan", "tuple")),
    "stabilize": _Command(
        (holmap, "cmd_stabilize"),
        False,
        ("fan", "tuple"),
        {"--increment": (_parse_degrees, "A1,A2,...")},
        one_of=("--increment",),
    ),
    "subfans": _Command((census, "cmd_subfans"), True, ("fan",), {"--classify": (None, None)}),
}


class _Parser:
    """The argv parser over `_COMMANDS`; see the module docstring for the
    grammar. Checks run in argparse's order: each option value as it is
    read, then missing arguments, then the one-of groups, then leftover
    words."""

    def __init__(self, commands):
        self.commands = commands

    def usage(self) -> list[str]:
        return [command.synopsis(name) for name, command in self.commands.items()]

    def parse_args(self, argv=None) -> SimpleNamespace:
        words = list(sys.argv[1:] if argv is None else argv)
        command = None
        values, pending, leftover = {}, [], []
        options_end = False
        index = 0
        while index < len(words):
            word = words[index]
            index += 1
            if not options_end and word == "--":
                options_end = True
                continue
            if options_end or word == "-" or not word.startswith("-"):
                if command is None:
                    command = self._command(word)
                    pending = list(command.positionals)
                    values = {
                        option: None if convert else False
                        for option, (convert, _) in command.options.items()
                    }
                elif pending:
                    values[pending.pop(0)] = word
                else:
                    leftover.append(word)
                continue
            if word in ("-h", "--help"):
                raise _HelpRequested
            option, equals, value = word.partition("=")
            if command is None or option not in command.options:
                leftover.append(word)
                continue
            convert = command.options[option][0]
            if convert is None:
                if equals:
                    raise _UsageError(f"argument {option}: ignored explicit argument {value!r}")
                values[option] = True
                continue
            if not equals:
                if index == len(words):
                    raise _UsageError(f"argument {option}: expected one argument")
                value = words[index]
                index += 1
            try:
                values[option] = convert(value)
            except _UsageError as exc:
                raise _UsageError(f"argument {option}: {exc}") from None
            if option in command.one_of:
                for other in command.one_of:
                    if other != option and values[other] is not None:
                        raise _UsageError(f"argument {option}: not allowed with argument {other}")
        if command is None:
            raise _UsageError("the following arguments are required: command")
        missing = pending
        if len(command.one_of) == 1:
            missing += [option for option in command.one_of if values[option] is None]
        if missing:
            raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
        if len(command.one_of) > 1 and all(values[option] is None for option in command.one_of):
            raise _UsageError(f"one of the arguments {' '.join(command.one_of)} is required")
        if leftover:
            raise _UsageError(f"unrecognized arguments: {' '.join(leftover)}")
        return SimpleNamespace(
            handler=command.handler,
            echo_name=command.echo_name,
            **{name.lstrip("-"): value for name, value in values.items()},
        )

    def _command(self, word: str) -> _Command:
        try:
            return self.commands[word]
        except KeyError:
            choices = ", ".join(map(repr, self.commands))
            raise _UsageError(
                f"argument command: invalid choice: {word!r} (choose from {choices})"
            ) from None


def build_parser() -> _Parser:
    return _Parser(_COMMANDS)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        fan, doc = doc_module.load_fan_file(args.fan)
        report = validate_fan(fan)
        if report.valid:
            module, name = args.handler
            body, code = getattr(module, name)(fan, args), EXIT_OK
        else:
            body, code = _invalid_fan_body(report), EXIT_INVALID
        if args.echo_name:
            body["name"] = doc.name
    except _HelpRequested:
        body, code = {"usage": parser.usage()}, EXIT_OK
    except _UsageError as exc:
        body, code = {"error": "USAGE_ERROR", "message": str(exc)}, EXIT_PARSE
    except doc_module.DocumentError as exc:
        body, code = {"error": exc.code, "message": str(exc)}, EXIT_PARSE
    except ToricKitError as exc:
        body, code = {"error": exc.code, "message": str(exc)}, EXIT_COMPUTE
    except ValueError as exc:
        body, code = {"error": "VALUE_ERROR", "message": str(exc)}, EXIT_COMPUTE
    body["schema_version"] = 1
    try:
        text = json.dumps(body, indent=2, sort_keys=True)
    except ValueError as exc:
        # An output integer above the interpreter's int-to-str digit limit.
        body = {"error": "VALUE_ERROR", "message": str(exc), "schema_version": 1}
        code, text = EXIT_COMPUTE, json.dumps(body, indent=2, sort_keys=True)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader has gone. Point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and keep the job's exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def run() -> int:
    """`main()` for a process that ends with this job: the `torickit`
    console script and `python -m torickit.cli`. Freezing the heap moves
    every surviving object into the permanent generation, which the
    collections at interpreter exit do not walk; `atexit` handlers and the
    stdio flush still run. `main` itself never freezes, since callers that
    run many jobs in one process would pin every object for good."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
