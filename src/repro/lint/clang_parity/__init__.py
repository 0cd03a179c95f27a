"""Cross-language ABI parity extraction for reprolint.

The two compiled kernels duplicate their contracts across two
languages: ``_mlpsim_kernel.c`` and ``_cyclesim_kernel.c`` hard-code
``#define`` tables, ``typedef struct`` layouts and an exported batch
entry point, while their ``ckernel.py`` drivers (plus ``columnar.py``,
``termination.py`` and ``opclass.py``) mirror them as ctypes
structures, ``argtypes`` wiring, enums and a versioned payload schema.
Nothing at runtime checks most of it — a reordered struct field reads
garbage, silently.

This package recovers both sides so the ``kernel-abi``,
``kernel-constants`` and ``schema-version`` passes can diff them on
every lint run:

* :mod:`repro.lint.clang_parity.cparse` — the one C front end (**no
  compiler dependency**): a single parse per kernel records the
  ``#define`` table with folded integer values, the ``typedef struct``
  field lists, every function signature and the statement-level
  bodies the certifier (:mod:`repro.lint.certify`) executes;
* :mod:`repro.lint.clang_parity.pyextract` — AST-side extractors for
  the Python counterparts: ``ctypes.Structure`` ``_fields_`` layouts,
  ``argtypes``/``restype`` wiring, enum member values and definition
  order, module-level integer constants, and the ``PLAN_COLUMNS``
  payload schema with its fingerprint.
"""
