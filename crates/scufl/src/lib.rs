//! # moteur-scufl
//!
//! On-disk languages for MOTEUR-RS, modelled on what the paper's
//! prototype consumes:
//!
//! - a **Scufl-like workflow description language** (§4.1: MOTEUR
//!   adopts Taverna's Simple Concept Unified Flow Language, including
//!   *coordination constraints* used to mark data synchronization);
//! - the **input data-set language** the authors built: "an XML-based
//!   language … to save and store the input data set in order to be
//!   able to re-execute workflows on the same data set".
//!
//! Both parse into the live `moteur` types ([`moteur::Workflow`],
//! [`moteur::InputData`]). Only descriptor-bound services are
//! expressible in XML (in-process Rust closures have no on-disk form —
//! the same way the original MOTEUR can only enact what Scufl can
//! name).
//!
//! ```
//! use moteur_scufl::{parse_workflow, parse_input_data};
//!
//! let wf = parse_workflow(r#"
//!   <scufl name="demo">
//!     <source name="images"/>
//!     <processor name="crestLines" compute="90">
//!       <executable name="CrestLines.pl">
//!         <value value="CrestLines.pl"/>
//!         <input name="floating_image" option="-im1"><access type="GFN"/></input>
//!         <input name="scale" option="-s"/>
//!         <output name="crest" option="-c1"><access type="GFN"/></output>
//!       </executable>
//!       <param slot="scale" value="2"/>
//!     </processor>
//!     <sink name="results"/>
//!     <link from="images:out" to="crestLines:floating_image"/>
//!     <link from="crestLines:crest" to="results:in"/>
//!   </scufl>"#).unwrap();
//! assert_eq!(wf.processors.len(), 3);
//!
//! let data = parse_input_data(r#"
//!   <inputdata>
//!     <input name="images"><item type="file" gfn="gfn://img/0" bytes="7800000"/></input>
//!   </inputdata>"#).unwrap();
//! assert_eq!(data.get("images").unwrap().len(), 1);
//! ```

pub mod inputdata;
pub mod workflow;

pub use inputdata::{parse_input_data, write_input_data};
pub use workflow::{lint_source, parse_workflow, parse_workflow_lenient, write_workflow};

/// A daemon submission's two texts, parsed: the workflow, then the
/// input data. This is the parser an embedder hands
/// [`moteur::Daemon::new`]; an error carries the parser's message.
pub fn parse_submission(
    workflow: &str,
    inputs: &str,
) -> Result<(moteur::Workflow, moteur::InputData), moteur::MoteurError> {
    let workflow = parse_workflow(workflow).map_err(|e| moteur::MoteurError::new(e.message))?;
    let inputs = parse_input_data(inputs).map_err(|e| moteur::MoteurError::new(e.message))?;
    Ok((workflow, inputs))
}

/// Error type shared by the two languages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScuflError {
    pub message: String,
}

impl ScuflError {
    pub fn new(message: impl Into<String>) -> Self {
        ScuflError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ScuflError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scufl error: {}", self.message)
    }
}

impl std::error::Error for ScuflError {}

impl From<moteur_xml::XmlError> for ScuflError {
    fn from(e: moteur_xml::XmlError) -> Self {
        ScuflError::new(e.to_string())
    }
}

impl From<moteur::MoteurError> for ScuflError {
    fn from(e: moteur::MoteurError) -> Self {
        ScuflError::new(e.to_string())
    }
}

impl From<moteur_wrapper::WrapperError> for ScuflError {
    fn from(e: moteur_wrapper::WrapperError) -> Self {
        ScuflError::new(e.to_string())
    }
}
